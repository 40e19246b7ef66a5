(** The two-phase simplex engine, warm-started across solves.

    Problems are the {!Simplex} vocabulary: maximise [c . x] over
    [x >= 0] subject to [Le]/[Ge]/[Eq] rows. A {!t} amortises tableau
    construction and phase 1 across a sweep. Build one per
    constraint system with {!create} (tableau constructed once, phase 1
    run once); then every {!reoptimize} starts phase 2 from the basis
    the previous solve ended on. A basic feasible solution stays
    feasible when only the objective changes, so phase 1 never re-runs
    on an objective sweep and most solves finish in a handful of
    pivots. {!rebuild} reloads the instance with a different constraint
    system in place (no allocation when the structural shape matches)
    and carries the previous optimal basis across when it verifies
    feasible against the new coefficients — the common case for
    sweeps over per-block fading draws, where consecutive systems share
    a binding structure.

    Internals: the numeric core is {!Kernel} — one flat row-major
    [floatarray] tableau with allocation-free elimination, pricing and
    ratio-test loops — and all scratch is preallocated in the instance,
    so a warm {!reoptimize_into} allocates zero words end to end
    (telemetry included). Pricing is Dantzig's most-positive
    reduced-cost rule with an automatic sticky fallback to Bland's rule
    after a run of degenerate pivots (Bland cannot cycle, so
    termination is unconditional); the ratio test takes the minimum
    ratio, lowest basis index among ties. A one-shot solve is
    [reoptimize (create ~nvars ~constrs) ~c].

    {b Ownership contract:} an instance is mutable state and is NOT
    re-entrant — never share one between domains. The rate-region layer
    keys instances per (LP shape, domain) via [Domain.DLS]; see the
    "LP solver architecture" section of [docs/ENGINE.md]. The QCheck
    suite checks this engine against an exhaustive basis enumeration
    that shares no code with it.

    {b Telemetry:} every recorded solve updates [linprog.solves] and
    [linprog.pivots], plus [linprog.warm_solves] /
    [linprog.phase1_skipped] for solves that
    started from a previously optimal basis, and
    [linprog.factored_solves] for solves that ended on a carried basis
    checked from its small factorisation, with no tableau built (see
    {!load}). Row eliminations spent rebuilding a carried basis in the
    tableau are basis factorisation, not simplex iterations; they are
    kept separate in [linprog.refactor_eliminations]. The kernel's
    element updates ([linprog.kernel_row_ops]) and refactorisation
    steps are published once per call: {!of_image}, {!load} (and so
    {!create} and {!rebuild}) and every solve flush them before
    returning. *)

type t

val create : nvars:int -> constrs:Simplex.constr list -> t
(** Build a solver for the given constraint system over [nvars]
    non-negative variables and establish a feasible basis (phase 1).
    Raises [Invalid_argument] on an arity mismatch. The phase-1 pivots
    are attributed to the first solve recorded on the instance. *)

type image
(** A constraint system loaded into tableau form before any pivot: the
    row-major cells and starting basis that {!create} and {!rebuild}
    start from. Solvers never mutate an image they load, so one image
    may feed any number of solvers. *)

val image : nvars:int -> constrs:Simplex.constr list -> image
(** The tableau of [constrs] over [nvars] non-negative variables, after
    sign normalisation: row [i] of [constrs] is tableau row [i], and
    structural coefficient [j] of it sits at cell
    [i * (ncols + 1) + j]. Raises [Invalid_argument] on an arity
    mismatch or [nvars <= 0]. *)

val copy_image : image -> image
(** A copy whose cells may be patched without touching the original
    (the geometry and basis are shared; they are never mutated). *)

val image_cells : image -> floatarray
(** The image's cells, row-major with the right-hand side last in each
    row. Writing a structural coefficient cell changes that coefficient
    of the system the image loads — the way to solve many systems of
    one structure from one image, provided no write flips the sign of a
    right-hand side (sign normalisation ran when the image was built). *)

val of_image : image -> t
(** {!create} from an image: load it and run phase 1. *)

val load : t -> image -> unit
(** {!rebuild} from an image, with the same basis carry: when the image
    has the loaded system's shape the previous optimal basis is
    factorised against its cells (the m x m basis and the right-hand
    side only, no tableau) and, if feasible, phase 1 is skipped. The
    next solve answers from that factorisation when the basis is
    optimal for its objective, and otherwise builds the tableau and
    pivots from it, so both take the pivots a tableau refactorisation
    would. A basis that is singular or infeasible for the image is
    dropped: the image is blitted in and phase 1 runs. A load of an
    image with the loaded system's row count allocates nothing.
    Raises [Invalid_argument] when the image's variable count differs
    from {!nvars}. *)

val nvars : t -> int

val pivots : t -> int
(** The simplex pivots of every solve recorded on this instance so far
    (phase 1 included) — this instance's own share of
    [linprog.pivots], unaffected by solves on other instances or
    domains. *)

val reoptimize : t -> c:float array -> Simplex.outcome
(** [reoptimize t ~c] maximises [c . x] over the currently loaded
    system, warm-starting from the basis of the previous solve (or the
    phase-1 basis right after {!create}/{!rebuild}). Records one solve
    in telemetry. Returns [Infeasible] immediately when the loaded
    system was proven infeasible. *)

type verdict = Optimal | Unbounded | Infeasible
(** {!reoptimize_into}'s result — constant constructors only, so
    returning one never allocates. *)

val reoptimize_into : t -> c:float array -> x:float array -> verdict
(** Zero-allocation {!reoptimize}: identical pivot path and telemetry,
    but the solution is written into the caller-owned [x] instead of a
    fresh [Simplex.solution]. [x] must have at least [nvars t + 1]
    slots: on [Optimal], [x.(0 .. nvars-1)] receive the optimal point
    (unused variables zeroed, negative zeros normalised) and
    [x.(nvars)] the objective value; on [Unbounded]/[Infeasible] the
    contents of [x] are unspecified. A warm call allocates zero words,
    which is what keeps the [linprog.alloc_bytes] budget at its floor —
    callers running sweeps should preallocate [c] and [x] once and
    reuse them. Raises [Invalid_argument] when [c] or [x] has the
    wrong arity. *)

val rebuild : t -> constrs:Simplex.constr list -> unit
(** Replace the loaded constraint system in place ([nvars] is fixed at
    {!create}). When the new system has the same structural shape (row
    count and per-row relations after sign normalisation), the previous
    optimal basis is factorised against the new coefficients and, if
    it verifies feasible, phase 1 is skipped; otherwise (shape change,
    singular basis, or an infeasible carried basis) the tableau is
    reloaded and phase 1 re-runs from scratch. Equivalent to
    [load t (image ~nvars:(nvars t) ~constrs)]. *)

val feasible : t -> bool
(** Whether the currently loaded system has any non-negative solution.
    Records one solve (this is the probe entry point: pair it with
    {!rebuild} to re-test shifted right-hand sides; a successful basis
    carry answers without any phase-1 work). *)
