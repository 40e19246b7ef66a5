(** The memo table: [string] keys to byte-string values, thread-safe.

    Every cache of the evaluation stack is one of these: the LP optima
    of [Rate_region] and [Optimize] (stored as 8-byte float words) and
    the serving plane's rendered responses. An entry is no heap object
    at all: its key and value bytes sit in one record of [Bytes]
    chunks, indexed by an open-addressing [int array], so a table of
    tens of thousands of entries costs the major GC a handful of blocks
    to mark. Chunks are allocated on the first insert (16 KB each to
    start), grow by doubling without ever being copied, and are kept by
    {!clear}, which only rewinds the fill pointer and zeroes the index.

    Lookups from any domain are serialised by a per-table mutex, but
    computations run OUTSIDE the lock, so concurrent misses on
    different keys proceed in parallel. Two domains racing on the SAME
    key may both compute; the first insertion wins and both return the
    stored value — harmless as long as the computation is
    deterministic, which is the contract of every caller in this repo.
    An exception from a computation stores nothing. Keys are equal iff
    their bytes are. *)

type t

val create : ?name:string -> unit -> t
(** A new empty table, registered with {!clear_all}. When [name] is
    given the table counts its lookups in [memo.<name>.hits] /
    [memo.<name>.misses] in the {!Telemetry.Metrics} registry. *)

val find_or_add :
  t -> string -> decode:(Bytes.t -> int -> int -> 'a) -> (unit -> string) -> 'a
(** [find_or_add t k ~decode compute] is [decode b off len] on the
    [len] value bytes stored for [k] at [b.[off]], or else runs
    [compute ()], stores its result and decodes that. A stored value is
    decoded straight from the table's storage, under its lock: [decode]
    must only read [b], and only the given range, and must copy what it
    keeps. *)

val find_opt : t -> string -> string option
(** A copy of the value stored for [k], counted as a hit or a miss. For
    callers that batch their misses into one parallel computation
    before storing the results with {!put}. *)

val put : t -> string -> string -> unit
(** Store a computed value. First writer wins (matching
    {!find_or_add}'s race policy). *)

val clear : t -> unit
(** Drop every entry, keeping the chunks for the next fill. *)

val length : t -> int

val clear_all : unit -> unit
(** Empty every table ever created and run every {!on_clear_all}
    hook. This is what "cold cache" means in benchmarks: no layer of
    the evaluation stack keeps a memoized result across the call. *)

val on_clear_all : (unit -> unit) -> unit
(** Register a hook to run on every {!clear_all}. For caches that
    cannot be a table (e.g. per-domain solver instances keyed through
    [Domain.DLS]) the hook typically bumps an epoch that each domain
    checks before reusing its cache. Hooks are never unregistered;
    register from module initialisers only. *)
