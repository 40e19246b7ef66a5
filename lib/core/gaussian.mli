(** Gaussian (AWGN with path loss) evaluation of Theorems 2–6.

    Setting: per-phase transmit power [P] at every node, unit-power
    circularly-symmetric complex Gaussian noise, reciprocal power gains
    [G_ab, G_ar, G_br], full CSI, and [C(x) = log2 (1 + x)]. As in the
    paper's Section IV we take [|Q| = 1] — with a per-phase power
    constraint a Gaussian input simultaneously maximises every mutual
    information term appearing in the bounds, so time sharing cannot help
    the Gaussian expressions (the one exception is the joint distribution
    [p(3)(xa, xb)] of the HBC outer bound; see {!val-bounds}). *)

type scenario = {
  power : float;        (** per-node, per-phase transmit power P (linear) *)
  gains : Channel.Gains.t;
}

val scenario : power_db:float -> gains:Channel.Gains.t -> scenario
val scenario_lin : power:float -> gains:Channel.Gains.t -> scenario
(** Raises [Invalid_argument] unless [power >= 0.] (so NaN is rejected
    too). *)

type link_rates = {
  c_ab : float;   (** C(P G_ab): direct link *)
  c_ar : float;   (** C(P G_ar) *)
  c_br : float;   (** C(P G_br) *)
  c_mac : float;  (** C(P G_ar + P G_br): MAC sum at the relay *)
  c_a_rb : float; (** C(P (G_ar + G_ab)): a heard by r and b jointly *)
  c_b_ra : float; (** C(P (G_br + G_ab)): b heard by r and a jointly *)
}

val link_rates : scenario -> link_rates
(** All six distinct mutual-information values the bounds need. *)

val mi : scenario -> Templates.mi
(** The mutual informations of Theorems 2–6 at this scenario, from
    {!link_rates}: with Gaussian inputs and reciprocal gains the relay
    broadcast is heard at [c_ar] by a and [c_br] by b, and the MAC
    conditional terms equal the single-user ones. The result has passed
    {!Templates.validate}: raises [Invalid_argument] when a value is
    not finite and non-negative (a NaN or infinite power, say). *)

val bounds : Protocol.t -> Bound.kind -> scenario -> Bound.t
(** The bound system of the given protocol.

    - [Dt]: inner = outer (point-to-point capacity both ways).
    - [Mabc]: inner = outer (Theorem 2 is the capacity region).
    - [Tdbc]: inner from Theorem 3, outer from Theorem 4.
    - [Hbc]: inner from Theorem 5. The outer system implements Theorem 6
      evaluated with independent Gaussian inputs in phase 3; the paper
      notes (end of Section IV) that joint Gaussianity is not known to be
      optimal there, so unlike the others this outer bound is a
      {e heuristic} evaluation of the theorem, provided for comparison. *)

val relay_free_outer : Protocol.t -> scenario -> Bound.t
(** The relaxed outer bound from the remarks after Theorems 2, 4 and 6:
    when the relay is not required to decode both messages, the sum-rate
    (relay-decoding) constraint is dropped. For [Dt] this equals the
    ordinary bound. *)
