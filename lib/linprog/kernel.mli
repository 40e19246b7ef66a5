(** Flat row-major simplex tableau kernel.

    The numeric core of {!Solver}: one contiguous unboxed [floatarray]
    holds the m x (ncols + 1) tableau (right-hand side in the last
    column), and every hot operation — elimination, pricing, ratio
    test, reduced costs — walks it with [unsafe_get]/[unsafe_set] over
    precomputed row offsets. No operation below allocates; all scratch
    ([reduced], [cost], [basis], [allowed]) is owned by the kernel and
    reused across solves, which is what makes the solver's warm
    [reoptimize_into] path allocation-free.

    The arithmetic is operation-for-operation identical to the
    historical nested [float array array] implementation, so pivot
    sequences and solutions are bit-for-bit unchanged — the flat layout
    only changes memory behaviour, never results.

    A kernel is mutable scratch, not a value: callers own exactly one
    per solver/tableau and must not share it across domains (see the
    ownership contract in docs/ENGINE.md). Index arguments are not
    bounds-checked; every [row]/[col] must come from loops bounded by
    [nrows]/[ncols]. *)

type t

val eps : float
(** Pivot/pricing tolerance (1e-9). *)

val create : nrows:int -> ncols:int -> t
(** Fresh kernel sized for an [nrows] x [ncols] system (plus the rhs
    column), zero-filled, all columns allowed. *)

val nrows : t -> int
val ncols : t -> int

val basis : t -> int -> int
(** The column currently basic in a row. *)

val bar_from : t -> int -> unit
(** [bar_from t j0] forbids columns [j0 .. ncols-1] from entering the
    basis (artificials in phase 2). *)

val load : t -> nrows:int -> ncols:int -> cells:floatarray -> basis:int array -> unit
(** [load t ~nrows ~ncols ~cells ~basis] sets the geometry, growing
    the backing buffers only when the system exceeds their capacity,
    copies the row-major [nrows] x [(ncols + 1)] tableau
    [cells] and the starting [basis] in with one blit each, and allows
    every column. *)

val load_cost : t -> float array -> int -> unit
(** [load_cost t c n]: objective [c] over the first [n] (structural)
    columns, zero elsewhere. *)

val load_phase1_cost : t -> first_artificial:int -> unit
(** The phase-1 objective: -1 on every artificial column. *)

val compute_reduced : t -> unit
(** Reduced costs of every column against the loaded cost, into the
    kernel's scratch; disallowed columns price to [neg_infinity].
    Row-major accumulation, bit-identical to the column-major
    reference. *)

val price_bland : t -> int
(** Lowest-index column with reduced cost > eps; -1 when optimal. *)

val price_dantzig : t -> int
(** Most positive reduced cost (lowest index on ties); -1 when
    optimal. *)

val ratio_leave : t -> col:int -> int
(** Minimum-ratio leaving row for entering column [col] (lowest basis
    index among ties); -1 when the column is unbounded. Records
    whether the winning ratio was degenerate — see {!degenerate}. *)

val degenerate : t -> bool
(** Whether the last {!ratio_leave} selected a (numerically) zero
    ratio — the stall signal for the solver's Dantzig-to-Bland
    fallback. *)

val eliminate : t -> row:int -> col:int -> unit
(** Gauss-Jordan pivot on (row, col): scales the pivot row, eliminates
    [col] from every other row, makes [col] basic in [row]. Element
    updates are added to the kernel's pending [linprog.kernel_row_ops]
    count (see {!flush_counts}). *)

val flush_counts : t -> unit
(** Publish the element updates done since the last flush to
    [linprog.kernel_row_ops] with one add, and zero the pending count.
    Every solver entry point calls this before it returns, so the
    registry total is exact whenever no LP call is in flight. *)

val objective_into : t -> float array -> int -> unit
(** Objective value of the current basic solution, written to
    [dst.(at)] (a float return would box on the warm path). *)

val objective : t -> float
(** Boxing convenience for cold paths. *)

val solution_into : t -> nvars:int -> x:float array -> unit
(** Basic solution over the [nvars] structural variables into a
    caller-owned buffer (zero-filled first). A value in [[-eps, 0]] is
    round-off on a non-negative variable and is reported as [0.], so
    neither a negative zero nor a tiny negative value is returned. *)

type factor
(** Scratch for a factored carried basis: the eliminated [B | b] of
    the basis and the pivot steps that eliminated it. Owned by one
    solver, grown on demand and
    reused, so a factorisation of the previous one's order allocates
    nothing. *)

val create_factor : unit -> factor

val factor_basis : t -> factor -> cells:floatarray -> bool
(** [factor_basis t f ~cells] factors [t]'s current basis (the columns
    basic in rows [0 .. nrows-1], in row order) against the image
    [cells] (row-major with [t]'s geometry, right-hand side last) by
    Gauss-Jordan with partial pivoting: step s pivots in the s-th of
    those columns, on its largest entry among the rows not yet pivoted
    (the lowest row on ties), with the arithmetic of {!eliminate} on
    the m x (m + 1) matrix [B | b] alone, so the factored right-hand
    side is bit for bit what {!replay} leaves in the tableau. [t]'s
    basis is rewritten to the column each step made basic in each row;
    its cells are not read or written. True when every step finds a
    pivot above 1e-7 and x_B has no entry below -1e-10; otherwise
    (B singular, or a column that is tiny before its turn) the basis
    is partly rewritten and the caller reloads. *)

val factored_optimal : t -> factor -> cells:floatarray -> below:int -> bool
(** Whether the factored basis is optimal for the loaded cost: with
    y = B^-T c_B, no non-basic column [j < below] has
    [c_j - y . A_j > eps]. Uses the reduced-cost scratch. *)

val factored_solution_into : t -> factor -> nvars:int -> x:float array -> unit
(** {!solution_into} for the factored basis (same round-off policy). *)

val factored_objective_into : t -> factor -> float array -> int -> unit
(** {!objective_into} for the factored basis: c_B . x_B in row order,
    bit for bit what the tableau would give. *)

val replay : t -> factor -> unit
(** Re-run the factor's pivot steps on the freshly loaded tableau of
    the image it factored, building the tableau a refactorisation in
    place would have built. Adds the steps to
    [linprog.refactor_eliminations] (their element updates go to the
    pending {!flush_counts} count). *)

val phase1_infeasible : t -> bool
(** The current objective is below [-eps] (after phase 1: the system
    has no feasible point). *)

val pivot_col : t -> row:int -> below:int -> int
(** The lowest column [j < below] with [|a(row, j)| > eps], or -1. *)

val drop_row : t -> int -> unit
(** Drop redundant row [i], moving the last active row into its slot. *)
