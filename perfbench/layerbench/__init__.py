"""The benchmark's own code: inputs, workloads, tracing and statistics."""
