"""Sources: the page Parquet reader, the deterministic synthetic page generator, and RDF/Turtle/GraphML import and export."""
