(** A memo table from [string] keys to [float array] values whose
    entries the garbage collector never scans.

    Key bytes live in [Bytes] chunks and values in [floatarray] chunks,
    indexed by one open-addressing [int array]; a stored entry is no
    heap object at all, so a table of tens of thousands of LP optima
    costs the major GC a handful of blocks to mark instead of ten or so
    per entry. Chunks are allocated on the first insert (16 KB each to
    start), grow by doubling without ever being copied, and are kept by
    {!clear}, which only rewinds the fill pointers and zeroes the index.

    Semantics are those of {!Memo}: the same global switch
    ({!Memo.enabled}), the same {!Stats} hit/miss calls and optional
    [memo.<name>.hits] / [memo.<name>.misses] counters, registration
    with {!Memo.clear_all}, a per-table mutex with computations run
    outside it, first writer wins, and an exception stores nothing.
    Keys are equal iff their bytes are. *)

type t

val create : ?name:string -> unit -> t

val find_or_add : t -> string -> (unit -> float array) -> float array
(** [find_or_add t k compute] returns a fresh copy of the value stored
    for [k], or runs [compute ()], stores a copy of its result and
    returns the result itself. Either way the caller owns the returned
    array: mutating it never changes the table. When the global switch
    is off it just runs [compute ()]. *)

val clear : t -> unit
(** Drop every entry, keeping the chunks for the next fill. *)

val length : t -> int
