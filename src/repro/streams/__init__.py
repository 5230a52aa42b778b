"""Update-sequence substrate: lifespans, FIFO windows, stream adapters."""
