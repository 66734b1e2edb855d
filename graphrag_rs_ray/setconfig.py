"""TOML configuration system (``config/setconfig.rs`` +
``config/validation.rs``).

Ports the reference's full ``SetConfig`` schema — every section struct
with its exact defaults — plus serde's loading semantics (missing
field → default where one exists, required-field error otherwise,
unknown keys ignored, TOML integers accepted for float fields), the
``Validatable`` rule set (errors / warnings / suggestions, strict mode)
and the ``to_graphrag_config`` mapping (here → :class:`KGConfig`).

Read-side only: ``save_to_file`` (``setconfig.rs:1712-1729``) needs a
TOML writer, which the sandbox stdlib lacks — out of scope, documented.
JSON configs load via stdlib ``json`` (the reference gates json5 behind
a feature flag and errors without it, ``setconfig.rs:1689-1700``;
full-json5 syntax is likewise unsupported here).
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Optional, Union, get_args, get_origin

__all__ = [
    "SetConfig", "ConfigError", "ValidationResult", "load_setconfig",
    "loads_setconfig", "validate_setconfig", "validate_config_file",
    "to_kg_config",
]


class ConfigError(ValueError):
    """GraphRAGError::Config equivalent."""


# --------------------------------------------------------------- schema --
# Defaults are verbatim ports of setconfig.rs:1060-1351.


@dataclass
class ModeConfig:                                    # setconfig.rs:614-631
    approach: str = "semantic"


@dataclass
class GeneralConfig:                                 # :98-120, :1355-1364
    log_level: str = "info"
    output_dir: str = "./output"
    input_document_path: Optional[str] = None
    max_threads: Optional[int] = None
    enable_profiling: bool = False


@dataclass
class CleaningConfig:                                # :174-191
    remove_urls: bool = False
    remove_emails: bool = False
    normalize_whitespace: bool = True
    remove_special_chars: bool = False


@dataclass
class TextExtractionConfig:                          # :150-171
    chunk_size: int = 512
    chunk_overlap: int = 64
    clean_control_chars: bool = True
    min_chunk_size: int = 50
    cleaning: Optional[CleaningConfig] = None


@dataclass
class EntityFiltersConfig:                           # :224-250
    min_entity_length: int = 3
    max_entity_length: int = 100
    allowed_entity_types: Optional[list[str]] = None
    confidence_threshold: float = 0.8
    allowed_patterns: Optional[list[str]] = None
    excluded_patterns: Optional[list[str]] = None
    enable_fuzzy_matching: bool = False


@dataclass
class EntityExtractionConfig:                        # :194-221
    model_name: str = "microsoft/DialoGPT-medium"
    temperature: float = 0.1
    max_tokens: int = 2048
    entity_types: Optional[list[str]] = None
    confidence_threshold: float = 0.8
    custom_prompt: Optional[str] = None
    filters: Optional[EntityFiltersConfig] = None


@dataclass
class GraphBuildingConfig:                           # :253-270
    relation_scorer: str = "cosine_similarity"
    min_relation_score: float = 0.7
    max_connections_per_node: int = 10
    bidirectional_relations: bool = True


@dataclass
class CommunityDetectionConfig:                      # :273-290
    algorithm: str = "leiden"
    resolution: float = 1.0
    min_community_size: int = 3
    max_community_size: int = 0


@dataclass
class PipelineConfig:                                # :122-147
    workflows: list[str] = field(default_factory=lambda: [
        "extract_text", "extract_entities", "build_graph",
        "detect_communities"])
    parallel_execution: bool = True
    text_extraction: TextExtractionConfig = field(
        default_factory=TextExtractionConfig)
    entity_extraction: EntityExtractionConfig = field(
        default_factory=EntityExtractionConfig)
    graph_building: GraphBuildingConfig = field(
        default_factory=GraphBuildingConfig)
    community_detection: CommunityDetectionConfig = field(
        default_factory=CommunityDetectionConfig)


@dataclass
class PostgreSQLConfig:                              # :315-331 (host..password required)
    host: str = dataclasses.MISSING            # type: ignore[assignment]
    port: int = dataclasses.MISSING             # type: ignore[assignment]
    database: str = dataclasses.MISSING         # type: ignore[assignment]
    username: str = dataclasses.MISSING         # type: ignore[assignment]
    password: str = dataclasses.MISSING         # type: ignore[assignment]
    pool_size: int = 10


@dataclass
class Neo4jConfig:                                   # :333-345
    uri: str = dataclasses.MISSING              # type: ignore[assignment]
    username: str = dataclasses.MISSING         # type: ignore[assignment]
    password: str = dataclasses.MISSING         # type: ignore[assignment]
    encrypted: bool = False


@dataclass
class StorageConfig:                                 # :293-313, :1428-1437
    database_type: str = "sqlite"
    database_path: str = "./graphrag.db"
    enable_wal: bool = True
    postgresql: Optional[PostgreSQLConfig] = None
    neo4j: Optional[Neo4jConfig] = None


@dataclass
class LLMParamsConfig:                               # :371-392
    temperature: float = 0.1
    top_p: float = 0.9
    frequency_penalty: float = 0.0
    presence_penalty: float = 0.0
    stop_sequences: Optional[list[str]] = None


@dataclass
class LocalModelsConfig:                             # :394-408
    ollama_base_url: str = "http://localhost:11434"
    model_name: str = "llama2:7b"
    embedding_model: str = "nomic-embed-text"


@dataclass
class ModelsConfig:                                  # :347-369, :1440-1449
    primary_llm: str = "gpt-4"
    embedding_model: str = "text-embedding-ada-002"
    max_context_length: int = 4096
    llm_params: Optional[LLMParamsConfig] = None
    local: Optional[LocalModelsConfig] = None


@dataclass
class PerformanceConfig:                             # :410-428, :1452-1460
    batch_processing: bool = True
    batch_size: int = 100
    worker_threads: int = 4
    memory_limit_mb: int = 1024


@dataclass
class OllamaSetConfig:                               # :430-470, :1463-1481
    enabled: bool = True
    host: str = "http://localhost"
    port: int = 11434
    chat_model: str = "llama3.1:8b"
    embedding_model: str = "nomic-embed-text"
    timeout_seconds: int = 60
    max_retries: int = 3
    fallback_to_hash: bool = False
    max_tokens: Optional[int] = None
    temperature: Optional[float] = None


@dataclass
class LazyGraphRAGConfig:                            # :510-553
    use_concept_extraction: bool = True
    min_concept_length: int = 3
    max_concept_words: int = 5
    co_occurrence_threshold: int = 1
    use_query_refinement: bool = True
    max_refinement_iterations: int = 3
    use_bidirectional_index: bool = True


@dataclass
class E2GraphRAGConfig:                              # :558-605
    use_lightweight_ner: bool = True
    entity_types: list[str] = field(default_factory=lambda: [
        "PERSON", "ORGANIZATION", "LOCATION", "CONCEPT"])
    min_confidence: float = 0.6
    use_capitalization_detection: bool = True
    use_noun_phrase_extraction: bool = True
    min_entity_frequency: int = 1
    use_fast_cooccurrence: bool = True
    use_bidirectional_index: bool = True


@dataclass
class ExperimentalConfig:                            # :472-504
    neural_reranking: bool = False
    federated_learning: bool = False
    real_time_updates: bool = False
    distributed_processing: bool = False
    lazy_graphrag: bool = False
    e2_graphrag: bool = False
    lazy_graphrag_config: Optional[LazyGraphRAGConfig] = None
    e2_graphrag_config: Optional[E2GraphRAGConfig] = None


@dataclass
class SemanticEmbeddingsConfig:                      # :654-679
    backend: str = "huggingface"
    model: str = "sentence-transformers/all-MiniLM-L6-v2"
    dimension: int = 384
    use_gpu: bool = True
    similarity_metric: str = "cosine"
    batch_size: int = 100


@dataclass
class SemanticEntityConfig:                          # :682-707
    method: str = "llm"
    use_gleaning: bool = True
    max_gleaning_rounds: int = 3
    model: str = "llama3.1:8b"
    temperature: float = 0.1
    confidence_threshold: float = 0.7


@dataclass
class SemanticRetrievalConfig:                       # :710-736
    strategy: str = "vector"
    use_hnsw: bool = True
    hnsw_ef_construction: int = 200
    hnsw_m: int = 16
    top_k: int = 10
    similarity_threshold: float = 0.7


@dataclass
class SemanticGraphConfig:                           # :738-752
    relation_scorer: str = "embedding_similarity"
    use_transformer_embeddings: bool = True
    min_relation_score: float = 0.7


@dataclass
class SemanticPipelineConfig:                        # :634-650
    # the four subsections carry no serde(default): required when
    # [semantic] is present (setconfig.rs:634-650)
    embeddings: SemanticEmbeddingsConfig = dataclasses.MISSING  # type: ignore[assignment]
    entity_extraction: SemanticEntityConfig = dataclasses.MISSING  # type: ignore[assignment]
    retrieval: SemanticRetrievalConfig = dataclasses.MISSING  # type: ignore[assignment]
    graph_construction: SemanticGraphConfig = dataclasses.MISSING  # type: ignore[assignment]
    enabled: bool = False


@dataclass
class AlgorithmicEmbeddingsConfig:                   # :775-800
    backend: str = "hash"
    dimension: int = 128
    use_tfidf: bool = True
    vocabulary_size: int = 10000
    min_term_frequency: int = 2
    max_document_frequency: float = 0.8


@dataclass
class AlgorithmicEntityConfig:                       # :803-827
    method: str = "pattern"
    use_ner_rules: bool = True
    use_pos_tagging: bool = False
    min_entity_length: int = 3
    confidence_threshold: float = 0.75
    patterns: Optional[list[str]] = None


@dataclass
class AlgorithmicRetrievalConfig:                    # :830-856
    strategy: str = "bm25"
    k1: float = 1.5
    b: float = 0.75
    use_stemming: bool = True
    language: str = "english"
    top_k: int = 10


@dataclass
class AlgorithmicGraphConfig:                        # :858-876
    relation_scorer: str = "jaccard"
    use_cooccurrence: bool = True
    window_size: int = 10
    min_relation_score: float = 0.6


@dataclass
class AlgorithmicPipelineConfig:                     # :755-772
    embeddings: AlgorithmicEmbeddingsConfig = dataclasses.MISSING  # type: ignore[assignment]
    entity_extraction: AlgorithmicEntityConfig = dataclasses.MISSING  # type: ignore[assignment]
    retrieval: AlgorithmicRetrievalConfig = dataclasses.MISSING  # type: ignore[assignment]
    graph_construction: AlgorithmicGraphConfig = dataclasses.MISSING  # type: ignore[assignment]
    enabled: bool = False


@dataclass
class HybridWeightsConfig:                           # :910-919
    semantic_weight: float = 0.6
    algorithmic_weight: float = 0.4


@dataclass
class HybridEmbeddingsConfig:                        # :922-939
    primary: str = "huggingface"
    fallback: str = "hash"
    combine_scores: bool = True
    auto_fallback: bool = True


@dataclass
class HybridEntityConfig:                            # :942-963
    use_both: bool = True
    llm_weight: float = 0.7
    pattern_weight: float = 0.3
    cross_validate: bool = True
    confidence_boost: float = 0.15


@dataclass
class HybridRetrievalConfig:                         # :966-987
    strategy: str = "fusion"
    combine_vector_bm25: bool = True
    vector_weight: float = 0.6
    bm25_weight: float = 0.4
    rrf_constant: int = 60


@dataclass
class HybridGraphConfig:                             # :990-1003
    primary_scorer: str = "embedding_similarity"
    fallback_scorer: str = "jaccard"
    combine_scores: bool = True


@dataclass
class HybridPipelineConfig:                          # :879-907
    weights: HybridWeightsConfig = dataclasses.MISSING  # type: ignore[assignment]
    embeddings: HybridEmbeddingsConfig = dataclasses.MISSING  # type: ignore[assignment]
    entity_extraction: HybridEntityConfig = dataclasses.MISSING  # type: ignore[assignment]
    retrieval: HybridRetrievalConfig = dataclasses.MISSING  # type: ignore[assignment]
    graph_construction: HybridGraphConfig = dataclasses.MISSING  # type: ignore[assignment]
    enabled: bool = False
    fallback_strategy: str = "semantic_first"
    cross_validation: bool = True


@dataclass
class EntityExtractionTopLevelConfig:                # :1006-1058
    enabled: bool = True
    min_confidence: float = 0.8
    use_gleaning: bool = False
    max_gleaning_rounds: int = 3
    gleaning_improvement_threshold: float = 0.1
    semantic_merging: bool = False
    merge_similarity_threshold: float = 0.85
    automatic_linking: bool = False
    linking_confidence_threshold: float = 0.8


@dataclass
class AutoSaveSetConfig:                             # :67-96
    enabled: bool = False
    interval_seconds: int = 300
    workspace_name: Optional[str] = None
    max_versions: int = 5


@dataclass
class SetConfig:                                     # :11-64
    mode: ModeConfig = field(default_factory=ModeConfig)
    semantic: Optional[SemanticPipelineConfig] = None
    algorithmic: Optional[AlgorithmicPipelineConfig] = None
    hybrid: Optional[HybridPipelineConfig] = None
    general: GeneralConfig = field(default_factory=GeneralConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    storage: StorageConfig = field(default_factory=StorageConfig)
    models: ModelsConfig = field(default_factory=ModelsConfig)
    performance: PerformanceConfig = field(default_factory=PerformanceConfig)
    ollama: OllamaSetConfig = field(default_factory=OllamaSetConfig)
    experimental: ExperimentalConfig = field(
        default_factory=ExperimentalConfig)
    entity_extraction: EntityExtractionTopLevelConfig = field(
        default_factory=EntityExtractionTopLevelConfig)
    auto_save: AutoSaveSetConfig = field(default_factory=AutoSaveSetConfig)


# --------------------------------------------------------------- loader --


def _unwrap_optional(tp):
    if get_origin(tp) is Union:
        args = [a for a in get_args(tp) if a is not type(None)]
        if len(args) == 1:
            return args[0], True
    return tp, False


def _coerce(value, tp, where: str):
    """serde-equivalent scalar coercion: TOML int → float is accepted,
    everything else must match (bool is not an int)."""
    if tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"TOML parse error: invalid type for {where}"
                              f" (expected float, got {type(value).__name__})")
        return float(value)
    if tp is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"TOML parse error: invalid type for {where}"
                              f" (expected integer)")
        return value
    if tp is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"TOML parse error: invalid type for {where}"
                              f" (expected boolean)")
        return value
    if tp is str:
        if not isinstance(value, str):
            raise ConfigError(f"TOML parse error: invalid type for {where}"
                              f" (expected string)")
        return value
    origin = get_origin(tp)
    if origin is list:
        if not isinstance(value, list):
            raise ConfigError(f"TOML parse error: invalid type for {where}"
                              f" (expected array)")
        (elem,) = get_args(tp)
        return [_coerce(v, elem, where) for v in value]
    raise ConfigError(f"TOML parse error: unsupported type at {where}")


def _from_dict(cls, data: dict, where: str):
    """serde struct semantics: unknown keys ignored, defaults applied,
    fields without defaults required."""
    if not isinstance(data, dict):
        raise ConfigError(f"TOML parse error: expected table for {where}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        key = f.name
        sub = f"{where}.{key}" if where else key
        tp, is_opt = _unwrap_optional(f.type if not isinstance(f.type, str)
                                      else _resolve(f.type))
        if key not in data:
            if f.default is not dataclasses.MISSING:
                kwargs[key] = f.default
            elif f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
                kwargs[key] = f.default_factory()  # type: ignore[misc]
            else:
                raise ConfigError(
                    f"TOML parse error: missing field `{key}` in `{where}`")
            continue
        value = data[key]
        if dataclasses.is_dataclass(tp):
            kwargs[key] = _from_dict(tp, value, sub)
        elif value is None and is_opt:
            kwargs[key] = None
        else:
            kwargs[key] = _coerce(value, tp, sub)
    return cls(**kwargs)


def _resolve(name: str):
    return eval(name, globals())  # dataclass field annotations (PEP 563)


def loads_setconfig(content: str, fmt: str = "toml") -> SetConfig:
    """Parse a config string (``setconfig.rs:1678-1708``)."""
    if fmt in ("json", "json5"):
        try:
            data = json.loads(content)
        except json.JSONDecodeError as e:
            raise ConfigError(f"JSON5 parse error: {e}") from e
    else:
        import tomllib
        try:
            data = tomllib.loads(content)
        except tomllib.TOMLDecodeError as e:
            raise ConfigError(f"TOML parse error: {e}") from e
    return _from_dict(SetConfig, data, "")


def load_setconfig(path: str) -> SetConfig:
    """``SetConfig::from_file``: format by extension (.json/.json5 →
    json, everything else → TOML)."""
    ext = os.path.splitext(path)[1].lstrip(".").lower()
    with open(path, encoding="utf-8") as fh:
        content = fh.read()
    return loads_setconfig(content,
                           "json" if ext in ("json", "json5") else "toml")


# ----------------------------------------------------------- validation --


class ValidationResult:
    """``validation.rs:8-38``."""

    def __init__(self):
        self.is_valid = True
        self.errors: list[str] = []
        self.warnings: list[str] = []
        self.suggestions: list[str] = []

    def add_error(self, error: str) -> None:
        self.errors.append(error)
        self.is_valid = False

    def add_warning(self, warning: str) -> None:
        self.warnings.append(warning)

    def add_suggestion(self, suggestion: str) -> None:
        self.suggestions.append(suggestion)


_SEMANTIC_BACKENDS = ("huggingface", "openai", "voyage", "cohere", "jina",
                      "mistral", "together", "ollama")


def _validate_pipeline_approach(config: SetConfig,
                                result: ValidationResult) -> None:
    """``validation.rs:167-349``."""
    approach = config.mode.approach
    if approach not in ("semantic", "algorithmic", "hybrid"):
        result.add_error(
            f"Invalid pipeline approach: '{approach}'. Must be 'semantic',"
            f" 'algorithmic', or 'hybrid'")
        return

    if approach == "semantic":
        s = config.semantic
        if s is None:
            result.add_error("Semantic pipeline approach selected but "
                             "[semantic] configuration is missing")
        else:
            if not s.enabled:
                result.add_error("Semantic pipeline approach selected but "
                                 "semantic.enabled = false")
            if s.embeddings.backend not in _SEMANTIC_BACKENDS:
                result.add_error(
                    f"Invalid semantic embedding backend: "
                    f"'{s.embeddings.backend}'. Must be one of: "
                    + ", ".join(_SEMANTIC_BACKENDS))
            if s.embeddings.dimension == 0:
                result.add_error(
                    "Semantic embedding dimension must be greater than 0")
            if not 0.0 <= s.entity_extraction.confidence_threshold <= 1.0:
                result.add_error("Semantic entity extraction confidence "
                                 "threshold must be between 0.0 and 1.0")
            if not 0.0 <= s.entity_extraction.temperature <= 2.0:
                result.add_error("Semantic entity extraction temperature "
                                 "must be between 0.0 and 2.0")
            if not 0.0 <= s.retrieval.similarity_threshold <= 1.0:
                result.add_error("Semantic retrieval similarity threshold "
                                 "must be between 0.0 and 1.0")
            if s.retrieval.top_k == 0:
                result.add_error(
                    "Semantic retrieval top_k must be greater than 0")

    if approach == "algorithmic":
        a = config.algorithmic
        if a is None:
            result.add_error("Algorithmic pipeline approach selected but "
                             "[algorithmic] configuration is missing")
        else:
            if not a.enabled:
                result.add_error("Algorithmic pipeline approach selected "
                                 "but algorithmic.enabled = false")
            if a.embeddings.backend != "hash":
                result.add_warning(
                    f"Algorithmic pipeline typically uses 'hash' backend, "
                    f"but '{a.embeddings.backend}' is configured")
            if a.embeddings.dimension == 0:
                result.add_error("Algorithmic embedding dimension must be "
                                 "greater than 0")
            if not 0.0 <= a.embeddings.max_document_frequency <= 1.0:
                result.add_error("Algorithmic max_document_frequency must "
                                 "be between 0.0 and 1.0")
            if not 0.0 <= a.entity_extraction.confidence_threshold <= 1.0:
                result.add_error("Algorithmic entity extraction confidence "
                                 "threshold must be between 0.0 and 1.0")
            if a.retrieval.k1 < 0.0:
                result.add_error("BM25 k1 parameter must be non-negative")
            if not 0.0 <= a.retrieval.b <= 1.0:
                result.add_error(
                    "BM25 b parameter must be between 0.0 and 1.0")
            if a.retrieval.top_k == 0:
                result.add_error(
                    "Algorithmic retrieval top_k must be greater than 0")

    if approach == "hybrid":
        h = config.hybrid
        if h is None:
            result.add_error("Hybrid pipeline approach selected but "
                             "[hybrid] configuration is missing")
        else:
            if not h.enabled:
                result.add_error("Hybrid pipeline approach selected but "
                                 "hybrid.enabled = false")
            wsum = h.weights.semantic_weight + h.weights.algorithmic_weight
            if abs(wsum - 1.0) > 0.01:
                result.add_warning(
                    f"Hybrid weights should sum to 1.0 "
                    f"(currently: {wsum:.2f})")
            if not 0.0 <= h.weights.semantic_weight <= 1.0:
                result.add_error(
                    "Hybrid semantic_weight must be between 0.0 and 1.0")
            if not 0.0 <= h.weights.algorithmic_weight <= 1.0:
                result.add_error(
                    "Hybrid algorithmic_weight must be between 0.0 and 1.0")
            esum = (h.entity_extraction.llm_weight
                    + h.entity_extraction.pattern_weight)
            if abs(esum - 1.0) > 0.01:
                result.add_warning(
                    f"Hybrid entity extraction weights should sum to 1.0 "
                    f"(currently: {esum:.2f})")
            rsum = h.retrieval.vector_weight + h.retrieval.bm25_weight
            if abs(rsum - 1.0) > 0.01:
                result.add_warning(
                    f"Hybrid retrieval weights should sum to 1.0 "
                    f"(currently: {rsum:.2f})")
            if h.retrieval.rrf_constant == 0:
                result.add_error("Hybrid RRF constant must be greater "
                                 "than 0 (typically 60)")
            if not 0.0 <= h.entity_extraction.confidence_boost <= 1.0:
                result.add_warning("Hybrid confidence_boost should "
                                   "typically be between 0.0 and 1.0")

    if approach == "semantic":
        result.add_suggestion(
            "Semantic pipeline uses neural embeddings and LLM-based "
            "extraction for high-quality results")
        if config.ollama.enabled:
            result.add_suggestion("Consider using 'llama3.1:8b' for entity "
                                  "extraction with gleaning enabled")
    elif approach == "algorithmic":
        result.add_suggestion(
            "Algorithmic pipeline uses pattern matching and TF-IDF for "
            "fast, resource-efficient processing")
        result.add_suggestion("Algorithmic pipeline works well for "
                              "structured documents and doesn't require "
                              "an LLM")
    elif approach == "hybrid":
        result.add_suggestion(
            "Hybrid pipeline combines semantic and algorithmic approaches "
            "for balanced quality and performance")
        result.add_suggestion("Fine-tune hybrid weights based on your "
                              "specific use case and evaluation metrics")


def validate_setconfig(config: SetConfig,
                       strict: bool = False) -> ValidationResult:
    """``Validatable for SetConfig`` (``validation.rs:351-437``)."""
    result = ValidationResult()
    _validate_pipeline_approach(config, result)

    ip = config.general.input_document_path
    if ip is not None:
        if ip == "":
            result.add_error("Input document path cannot be empty")
        elif not os.path.exists(ip):
            result.add_error(f"Input document not found: {ip}")
        elif not os.path.isfile(ip):
            result.add_error(f"Input path is not a file: {ip}")
    else:
        result.add_error("Input document path is required")

    if config.general.output_dir == "":
        result.add_error("Output directory cannot be empty")

    te = config.pipeline.text_extraction
    if te.chunk_size == 0:
        result.add_error("Chunk size must be greater than 0")
    if te.chunk_overlap >= te.chunk_size:
        result.add_error("Chunk overlap must be less than chunk size")

    o = config.ollama
    if o.enabled:
        if o.host == "":
            result.add_error("Ollama host cannot be empty when enabled")
        if o.port == 0:
            result.add_error("Ollama port must be valid")
        if o.chat_model == "":
            result.add_error("Ollama chat model must be specified")
        if o.embedding_model == "":
            result.add_error("Ollama embedding model must be specified")
        if o.chat_model == "llama2":
            result.add_suggestion(
                "Consider using 'llama3.1:8b' for better performance")

    if config.storage.database_type not in (
            "memory", "file", "sqlite", "postgresql", "neo4j"):
        result.add_error(
            f"Unknown database type: {config.storage.database_type}")
        result.add_suggestion(
            "Supported types: memory, file, sqlite, postgresql, neo4j")

    if strict and not config.ollama.enabled:
        result.add_warning("Ollama is not enabled, will use mock LLM")
    return result


def validate_config_file(path: str, strict: bool = False
                         ) -> ValidationResult:
    """``validation.rs:441-455``."""
    config = load_setconfig(path)
    return validate_setconfig(config, strict=strict)


# -------------------------------------------------------------- mapping --


def to_kg_config(sc: SetConfig):
    """``to_graphrag_config`` (``setconfig.rs:1731-1836``) mapped onto
    this repo's :class:`~graphrag_rs_ray.config.KGConfig`: chunking from
    [pipeline.text_extraction], min_confidence and extractor by
    approach (semantic → gleaning/mock-LLM, algorithmic → pattern,
    hybrid → gleaning with the reference's reduced 2 rounds), entity
    types and filter patterns forwarded; Ollama/storage/model fields
    have no Ray-side runtime and live only on the SetConfig object."""
    from graphrag_rs_ray.config import KGConfig
    te = sc.pipeline.text_extraction
    ee = sc.pipeline.entity_extraction
    approach = sc.mode.approach

    min_conf = sc.entity_extraction.min_confidence
    extractor = "pattern"
    gleaning_rounds = sc.entity_extraction.max_gleaning_rounds
    if approach == "semantic":
        extractor = "gleaning"
        if sc.semantic is not None:
            if sc.semantic.entity_extraction.use_gleaning:
                gleaning_rounds = \
                    sc.semantic.entity_extraction.max_gleaning_rounds
            min_conf = sc.semantic.entity_extraction.confidence_threshold
        elif not sc.entity_extraction.use_gleaning:
            gleaning_rounds = 3          # default_max_gleaning_rounds()
    elif approach == "algorithmic":
        extractor = "pattern"
        if sc.algorithmic is not None:
            min_conf = sc.algorithmic.entity_extraction.confidence_threshold
    elif approach == "hybrid":
        extractor = "gleaning"
        if sc.hybrid is not None:
            gleaning_rounds = 2          # setconfig.rs:1786 reduced rounds

    entity_types = tuple(ee.entity_types) if ee.entity_types else \
        KGConfig().entity_types
    filters = ee.filters
    kwargs = dict(
        chunk_size=te.chunk_size,
        chunk_overlap=te.chunk_overlap,
        min_chunk_size=te.min_chunk_size,
        extractor=extractor,
        min_confidence=min_conf,
        entity_types=entity_types,
        fuzzy_linking=bool(filters and filters.enable_fuzzy_matching),
        extra={"approach": approach,
               "max_gleaning_rounds": gleaning_rounds,
               "community_algorithm":
                   sc.pipeline.community_detection.algorithm,
               "community_resolution":
                   sc.pipeline.community_detection.resolution,
               "min_relation_score":
                   sc.pipeline.graph_building.min_relation_score,
               "max_connections":
                   sc.pipeline.graph_building.max_connections_per_node,
               "parallel": sc.pipeline.parallel_execution,
               "worker_threads": sc.performance.worker_threads,
               "batch_size_hint": sc.performance.batch_size},
    )
    if filters:
        if filters.allowed_patterns:
            kwargs["allowed_patterns"] = tuple(filters.allowed_patterns)
        if filters.excluded_patterns:
            kwargs["excluded_patterns"] = tuple(filters.excluded_patterns)
    return KGConfig(**kwargs)


# --------------------------------------------------------------- save side
# Port of ``setconfig.rs:1711-1728`` (``save_to_file``): serialize the
# config tree to TOML with the reference's exact header comment.  The
# reference delegates to ``toml::to_string_pretty``; this emits the same
# document structure (scalars before sub-tables, dotted [a.b] headers,
# basic-string escaping, lowercase bools) — byte formatting may differ
# from toml-rs, but the output round-trips through ``loads_setconfig``
# bit-equal (gated in tests/test_setconfig.py).

_TOML_HEADER = (
    "# ==========================================================="
    "==================\n"
    "# GraphRAG Configuration File\n"
    "# Complete configuration with extensive parameters for easy "
    "customization\n"
    "# ==========================================================="
    "==================\n\n")


def _toml_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        s = repr(v)
        return s if ("." in s or "e" in s or "inf" in s or "nan" in s) \
            else s + ".0"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        esc = v.replace("\\", "\\\\").replace('"', '\\"') \
               .replace("\n", "\\n").replace("\t", "\\t") \
               .replace("\r", "\\r")
        # remaining C0 control chars and DEL are invalid inside a TOML
        # basic string — emit \uXXXX so save/load round-trips
        esc = "".join(c if 0x20 <= ord(c) != 0x7F else "\\u%04X" % ord(c)
                      for c in esc)
        return f'"{esc}"'
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_toml_scalar(x) for x in v) + "]"
    raise ConfigError(f"TOML serialize error: unsupported value {v!r}")


def _toml_table(obj, path: str, out: list) -> None:
    import dataclasses as _dc
    scalars, subs = [], []
    for f in _dc.fields(obj):
        v = getattr(obj, f.name)
        if v is None:
            continue                     # Option::None fields are omitted
        if _dc.is_dataclass(v):
            subs.append((f.name, v))
        else:
            scalars.append((f.name, v))
    if path and (scalars or not subs):
        out.append(f"[{path}]")
        for name, v in scalars:
            out.append(f"{name} = {_toml_scalar(v)}")
        out.append("")
    elif not path:
        for name, v in scalars:
            out.append(f"{name} = {_toml_scalar(v)}")
        if scalars:
            out.append("")
    for name, v in subs:
        _toml_table(v, f"{path}.{name}" if path else name, out)


def dumps_setconfig(sc: SetConfig) -> str:
    """SetConfig → TOML string (no header; the file writer adds it)."""
    out: list[str] = []
    _toml_table(sc, "", out)
    return "\n".join(out)


def save_setconfig(sc: SetConfig, path: str) -> None:
    """Port of ``setconfig.rs:1711-1728``: TOML body prefixed with the
    reference's header comment, written atomically."""
    body = _TOML_HEADER + dumps_setconfig(sc)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(body)
    os.replace(tmp, path)
