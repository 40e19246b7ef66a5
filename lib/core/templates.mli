(** Protocol bound templates, shared between the Gaussian and the
    discrete evaluations.

    Theorems 2–6 have the same *structure* for any memoryless channel:
    only the per-phase mutual-information values differ. This module
    builds the {!Bound.t} systems from those values. *)

type mi = {
  ab : float;       (** I(Xa; Yb), a transmitting to b, single user *)
  ba : float;       (** I(Xb; Ya), b transmitting to a *)
  ar : float;       (** I(Xa; Yr), a alone to relay *)
  br : float;       (** I(Xb; Yr), b alone to relay *)
  ra : float;       (** I(Xr; Ya), relay broadcast heard by a *)
  rb : float;       (** I(Xr; Yb), relay broadcast heard by b *)
  mac_a : float;    (** I(Xa; Yr | Xb) in a MAC phase *)
  mac_b : float;    (** I(Xb; Yr | Xa) in a MAC phase *)
  mac_sum : float;  (** I(Xa, Xb; Yr) in a MAC phase *)
  a_rb : float;     (** I(Xa; Yr, Yb), a heard jointly by r and b *)
  b_ra : float;     (** I(Xb; Yr, Ya) *)
}
(** In the Gaussian case [ab = ba], [ar = mac_a], [br = mac_b],
    [ra = ar] and [rb = br] hold by reciprocity and Gaussian optimality,
    but discrete networks with asymmetric input distributions may break
    all of these equalities. *)

val num_fields : int
(** 11: the fields of {!mi}, numbered [0 .. 10] in declaration order
    ([ab] = 0, ..., [b_ra] = 10). *)

val of_fields : (int -> float) -> mi
(** [of_fields f] has field [k] equal to [f k]. *)

val fields_into : mi -> floatarray -> unit
(** Write field [k] to slot [k] of a buffer of at least {!num_fields}
    slots, allocating nothing. *)

val validate : mi -> unit
(** All values must be finite and non-negative. *)

val dt : mi -> Bound.t
val naive : mi -> Bound.t
val mabc : Bound.kind -> mi -> Bound.t
val tdbc : Bound.kind -> mi -> Bound.t
val hbc : Bound.kind -> mi -> Bound.t

val bounds : Protocol.t -> Bound.kind -> mi -> Bound.t
