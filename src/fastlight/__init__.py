"""Fast-light ring cavities: Sagnac splitting, dispersive response, noise floors."""

__version__ = "0.1.0"
