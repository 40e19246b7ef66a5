(** Rate regions induced by a bound system, computed exactly by linear
    programming.

    For a bound system [B] (see {!Bound}), the achievable set
    [{(Ra, Rb) : exists Delta in simplex, all constraints hold}] is the
    projection of a polytope and hence a convex polygon in the positive
    quadrant, down-closed by construction. Its Pareto frontier is found
    exactly by a dichotomic search over weighted LPs [max wa Ra + wb Rb]
    (2V - 1 of them for V frontier vertices); each LP also yields the
    optimising phase schedule. *)

type opt_result = {
  ra : float;
  rb : float;
  deltas : float array;  (** optimal phase durations (sum to 1) *)
}

val sum : opt_result -> float
(** [ra +. rb]. *)

val lp_constraints : Bound.t -> int * Linprog.Simplex.constr list
(** The raw LP behind every query on this region: variable count and
    constraint rows over [x = [Ra; Rb; d_1; ...; d_L]] (the bound's
    terms as [<=] rows plus the duration simplex equality). Exposed so
    benchmarks and tests can drive {!Linprog.Solver} on the exact
    production system; ordinary callers never need it. *)

val max_weighted : Bound.t -> wa:float -> wb:float -> opt_result
(** Maximise [wa Ra + wb Rb]; weights must be non-negative, not both 0.
    Raises [Failure] if the LP misbehaves (cannot happen for bound
    systems built by {!Gaussian} — they are bounded and feasible).

    Solutions are memoized in a process-wide thread-safe table
    ({!Engine.Memo}) keyed on the bits of the bound's coefficients
    and of the weight pair (see [docs/ENGINE.md]); repeated region
    queries on one scenario reuse LP solutions instead of re-solving.
    The cache never changes results — only whether the simplex solver
    actually runs. This is the module's only memo table;
    {!Engine.Memo.clear_all} empties it and invalidates the module's
    warm-start solvers. *)

val encode_optimum : float array -> string
(** [[ra; rb; d_1; ...; d_L]] as the memo value of an LP optimum:
    native-endian 8-byte words, bit for bit. *)

val optimum_word : Bytes.t -> int -> int -> float
(** [optimum_word b off i] is word [i] of the optimum encoded at
    [b.[off]]. *)

val optimum_deltas : Bytes.t -> int -> int -> float array
(** [optimum_deltas b off len]: a fresh copy of [[d_1; ...; d_L]] from
    the [len] bytes of an optimum encoded at [b.[off]]. *)

val system_tag : Protocol.t -> Bound.kind -> int
(** A small integer, distinct for every (protocol, bound kind) pair:
    the first word of the binary cache keys built here and in
    {!Optimize}. *)

val max_sum_rate : Bound.t -> opt_result
(** The optimal sum rate and the durations achieving it (the quantity
    plotted in the paper's Fig. 3). *)

(** {1 Compiled sum-rate templates}

    The sum-rate LP of [Templates.bounds protocol kind m] has the same
    structure for every [m]; only the per-phase coefficients change. A
    template is that structure compiled once (from {!Templates} itself,
    on first use): the LP's tableau image, the cells each {!Templates.mi}
    field fills, and where those fields sit in the system's bound key.
    Solving from a template patches the cells and reuses the per-shape,
    per-domain solver slot the symbolic queries above use, so the two
    paths share basis history: a template solve of the system a slot
    already holds does not reload it, and vice versa. *)

type template

val sum_rate_template : Protocol.t -> Bound.kind -> template
(** The compiled sum-rate system of the pair, built on first use and
    shared by every domain. *)

val template_fields : template -> int array
(** The {!Templates.mi} fields (numbered as in {!Templates.num_fields})
    the system reads, ascending: exactly the fields its symbolic bound
    depends on. *)

val template_key : template -> Templates.mi -> string
(** A memo key for the template's answer at [m]: the system tag, then
    the bits of each field in {!template_fields}. Two [mi]s with equal
    keys give bit-identical bound keys, so equal LPs. *)

val solve_template : template -> Templates.mi -> float array
(** [[ra; rb; d_1; ...; d_L]]: the lexicographic sum-rate optimum
    ({!max_sum_rate}'s objective) of [Templates.bounds protocol kind m],
    solved without building the bound. [m] must pass
    {!Templates.validate}; this does not check it. Records the LP in
    the [linprog.*] counters only (no span, no [lp.solve_seconds]
    sample: callers time template solves in bulk) and stores nothing
    in this module's memo tables. *)

val solve_template_into : template -> Templates.mi -> float array
(** {!solve_template} without a result copy: returns this
    domain's slot buffer — [ra; rb; d_1; ...; d_L] then the objective —
    which the next LP solve on the domain overwrites. Allocates nothing
    once the domain holds a slot of this shape and has solved this
    template before. *)

val max_ra : Bound.t -> opt_result
(** Lexicographic: maximise Ra, then Rb (the region's rightmost corner). *)

val max_rb : Bound.t -> opt_result

val achievable : Bound.t -> ra:float -> rb:float -> bool
(** Exact membership test for the rate pair (an LP feasibility probe over
    the phase durations; not memoized). *)

val boundary : Bound.t -> Numerics.Vec2.t list
(** [boundary b] is every vertex of the region's Pareto frontier, from
    the {!max_rb} corner to the {!max_ra} corner by increasing Ra. A
    dichotomic search finds them: between two known vertices, one
    weighted LP along the outward normal of their segment either finds
    a vertex strictly beyond it (by a relative 1e-9), and the search
    recurses on both halves, or shows the segment is an edge. It solves
    2V - 1 LPs for V vertices, all in the calling domain and in a fixed
    order, so the result does not depend on the domain count. *)

val polygon : Bound.t -> Numerics.Vec2.t list
(** The full down-closed region polygon (counter-clockwise, includes the
    origin and the axis intercepts) — suitable for area, containment and
    plotting. *)

val area : Bound.t -> float

val contains_region : Bound.t -> Bound.t -> bool
(** [contains_region big small]: every boundary vertex of [small] is
    achievable under [big] (exact for convex regions). *)

val distance_outside : Bound.t -> ra:float -> rb:float -> float
(** 0 when the pair is achievable; otherwise the Euclidean distance from
    the pair to the region's polygon — used to quantify by how much an
    HBC point escapes the MABC/TDBC outer bounds. *)

val max_product : Bound.t -> Numerics.Vec2.t
(** The proportional-fair operating point: the rate pair on the Pareto
    frontier maximising [Ra * Rb] (equivalently [log Ra + log Rb]).
    Exact: the frontier is exact and the product is maximised in closed
    form on every frontier edge. *)

val union_polygon : Bound.t list -> Numerics.Vec2.t list
(** Down-closed convex hull of the union of several regions — the
    time-sharing operation behind the |Q| > 1 form of the theorems
    (Fenchel–Bunt caps useful |Q| at 5): e.g. the discrete bounds
    evaluated at several input distributions and then time-shared.
    Raises [Invalid_argument] on an empty list. *)

val binding_terms : ?eps:float -> Bound.t -> opt_result -> Bound.term list
(** The constraints tight (within [eps], default 1e-7) at the given
    operating point — i.e. which cut-set/decoding step limits the
    protocol there. *)

val boundary_with_schedules : Bound.t -> opt_result list
(** Like {!boundary} but keeps, for every Pareto vertex, the phase
    durations achieving it — what a scheduler actually needs to operate
    at that point. Ordered by increasing Ra. *)
