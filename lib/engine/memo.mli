(** Thread-safe memoization tables with a global enable switch.

    A table maps canonical keys to computed values; lookups from any
    domain are serialised by a per-table mutex, but computations run
    OUTSIDE the lock so concurrent misses on different keys proceed in
    parallel (two domains racing on the SAME key may both compute; the
    first insertion wins and both observe the stored value — harmless
    as long as the computation is deterministic, which is the contract
    of every caller in this repo).

    Hits and misses are recorded in {!Stats}. When the global switch is
    off ({!set_enabled} [false]), [find_or_add] always computes and
    records nothing, so disabling the cache changes wall time but never
    results. *)

type ('k, 'v) t

val create : ?name:string -> ?size:int -> unit -> ('k, 'v) t
(** [size] is the initial hash-table capacity (default 256). Keys are
    compared with structural equality and hashed with [Hashtbl.hash].
    When [name] is given the table additionally maintains its own
    [memo.<name>.hits] / [memo.<name>.misses] counters in the
    {!Telemetry.Metrics} registry, so per-cache hit rates show up in
    [--metrics] output alongside the global totals in {!Stats}. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_add t k compute] returns the cached value for [k], or runs
    [compute ()], stores the result and returns it. Exceptions from
    [compute] propagate and nothing is stored. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** Lookup without computing, counted as a hit or miss. Always [None]
    (and not counted) when the global switch is off. For callers that
    batch their misses into one parallel computation before storing
    the results with {!put}. *)

val put : ('k, 'v) t -> 'k -> 'v -> unit
(** Store a computed value. First writer wins (matching
    {!find_or_add}'s race policy); a no-op when the global switch is
    off, so a disabled cache never retains results. *)

val clear : ('k, 'v) t -> unit
val length : ('k, 'v) t -> int

val clear_all : unit -> unit
(** Clear every table ever created (each [create] registers itself),
    then run every {!on_clear_all} hook. This is what "cold cache"
    means in benchmarks: no layer of the evaluation stack keeps a
    memoized result across the call. *)

val on_clear_all : (unit -> unit) -> unit
(** Register a hook to run after every {!clear_all}. For caches that
    cannot live in a table registry (e.g. per-domain solver instances
    keyed through [Domain.DLS]) the hook typically bumps an epoch that
    each domain checks before reusing its cache. Every {!Flat_memo}
    table registers its [clear] here. Hooks are never unregistered;
    register from module initialisers (or table creation) only. *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Global switch shared by all tables (default: enabled). *)

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run a thunk with the switch temporarily forced to the given state,
    restoring the previous state afterwards (also on exceptions). *)
