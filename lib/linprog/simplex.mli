(** Two-phase primal simplex for dense linear programs.

    Problems are stated over non-negative variables [x >= 0]:
    maximise [c . x] subject to a list of linear constraints, each of the
    form [a . x (<= | >= | =) b]. The implementation uses Bland's
    anti-cycling rule throughout, so it terminates on every input; the
    LPs arising from rate-region computations are tiny (fewer than ten
    variables), so no effort is spent on sparsity.

    {b Thread-safety contract:} the solver is pure and re-entrant. All
    tableau state is allocated per call, input [coeffs] arrays are
    copied into the tableau (never mutated), and the module holds no
    result-affecting global mutable state — so any number of domains
    may call {!maximize}, {!minimize} and {!feasible} concurrently, and
    a given input always produces the same output bit-for-bit. The
    parallel sweep engine ([Engine.Pool] / [Rate_region]) relies on
    both properties; see [docs/ENGINE.md].

    {b Telemetry:} every solve updates the [linprog.solves],
    [linprog.pivots] and [linprog.kernel_row_ops] counters in
    {!Telemetry.Metrics} before it returns. These are atomic,
    write-only observations and never influence the solution path.

    This module is the cold-start reference implementation: every call
    pays for tableau construction and phase 1. Sweeps that solve many
    objectives over one constraint system should use {!Solver}, the
    warm-start engine checked against this module by the QCheck
    suite. *)

type relation = Le | Ge | Eq

type constr = {
  coeffs : float array;  (** one coefficient per variable *)
  relation : relation;
  rhs : float;
}

type solution = {
  x : float array;       (** optimal assignment, one entry per variable *)
  objective : float;     (** value of [c . x] at the optimum *)
}

type outcome = Optimal of solution | Unbounded | Infeasible

val constr : float array -> relation -> float -> constr
(** Convenience constructor. *)

val maximize : c:float array -> constrs:constr list -> outcome
(** [maximize ~c ~constrs] solves the LP. All constraint coefficient
    arrays must have the same length as [c]; raises [Invalid_argument]
    otherwise. *)

val minimize : c:float array -> constrs:constr list -> outcome
(** [minimize ~c ~constrs] minimises [c . x]; the reported [objective] is
    the minimum (not its negation). *)

val feasible : constrs:constr list -> nvars:int -> bool
(** [feasible ~constrs ~nvars] decides whether the constraint system has
    any non-negative solution (phase 1 only). *)
