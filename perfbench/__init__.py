"""The repository benchmark: four workloads, end-to-end metrics, traced layers."""
