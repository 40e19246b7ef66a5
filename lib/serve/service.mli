(** The admission path between the HTTP front end and the evaluation
    stack: every query goes through a process-wide response cache (an
    {!Engine.Memo} table of rendered bodies, keyed by
    {!Query.cache_key}); the misses of a batch are deduplicated and fanned across
    {!Engine.Pool} in one [map_array]; the computed bodies are stored
    back so repeated queries are answered without touching a solver.

    Metrics (in the {!Telemetry.Metrics} registry, so they reach
    [--metrics] dumps, [--live] heartbeats and [bidir check]
    snapshots):
    - [serve.requests] — queries admitted (batch members included)
    - [serve.cache_hits] / [serve.cache_misses] /
      [serve.cache_duplicates] — one per admitted query: hits are
      answered by a stored body, misses are the unique queries
      evaluated, duplicates ride an earlier copy's evaluation in the
      same batch, so the three sum to requests
    - [serve.batch_size] — histogram of admitted batch sizes

    The cache participates in {!Engine.Memo.clear_all}, so "cold
    cache" workloads ([bidir check]) stay cold through the serving
    layer too. *)

val respond : Query.t -> string
(** Answer one query: the compact-JSON response body
    ([bidir-serve/1] envelope with the canonical query echo and the
    result object). *)

val respond_batch : Query.t list -> string list
(** Answer a batch, one body per query in order. Cache hits are
    answered from the memo; the unique misses are evaluated in a
    single pool fan-out. Evaluation failures render as an
    [{"error": ...}] envelope rather than raising, so one poisoned
    query cannot take down a batch. *)

val cache_length : unit -> int
(** Entries currently in the response cache. *)
