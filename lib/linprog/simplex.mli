(** The vocabulary of a dense linear program.

    Problems are stated over non-negative variables [x >= 0]:
    maximise [c . x] subject to a list of linear constraints, each of the
    form [a . x (<= | >= | =) b]. {!Solver} is the engine that solves
    them; this module holds only the types it reads and answers in. *)

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
