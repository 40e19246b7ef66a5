(** Discrete-memoryless evaluation of the bounds (Theorems 2–6 as stated,
    before the Gaussian specialisation).

    A discrete bidirectional relay network consists of three single-user
    links (each a {!Infotheory.Dmc.t}, used when exactly one node
    transmits) and a two-user MAC to the relay (used in the MABC phase 1
    and HBC phase 3). Links are reciprocal, as in the paper. The paper
    never evaluates this case numerically — this module exists because
    the theorems are stated for DMCs and a downstream user of the library
    may care about, say, binary-modulated networks. *)

type network = {
  ch_ab : Infotheory.Dmc.t;  (** a <-> b direct link *)
  ch_ar : Infotheory.Dmc.t;  (** a <-> r *)
  ch_br : Infotheory.Dmc.t;  (** b <-> r *)
  mac_r : Infotheory.Mac.t;  (** (a, b) -> r joint channel *)
}

val make : ch_ab:Infotheory.Dmc.t -> ch_ar:Infotheory.Dmc.t ->
  ch_br:Infotheory.Dmc.t -> mac_r:Infotheory.Mac.t -> network
(** Validates input-alphabet consistency: the MAC user alphabets must
    match the single-user link input alphabets of a and b. *)

val bsc_network :
  p_ab:float -> p_ar:float -> p_br:float -> p_mac:float -> network
(** All-binary network: the three links are BSCs and the relay MAC is
    the noisy-XOR channel [Yr = Xa xor Xb xor Bern(p_mac)] — the natural
    binary caricature of superposition where the relay can at best learn
    the XOR, which is exactly what it needs to forward. *)

type inputs = {
  p_a : Infotheory.Pmf.t;  (** input distribution of terminal a *)
  p_b : Infotheory.Pmf.t;
  p_r : Infotheory.Pmf.t;  (** relay broadcast input distribution *)
}

val uniform_inputs : network -> inputs

val mi_values : network -> inputs -> Templates.mi
(** All mutual-information terms of the bound templates for the given
    (product) input distributions. The joint-observation terms
    [I(Xa; Yr, Yb)] use the product channel of the two independent-noise
    links. *)

val bounds : Protocol.t -> Bound.kind -> network -> inputs -> Bound.t

val max_sum_rate_binary :
  ?grid:int -> Protocol.t -> Bound.kind -> network -> float * inputs
(** For all-binary networks: grid search over Bernoulli input parameters
    (default an 11-point grid per node, refined once) maximising the
    optimal sum rate; returns the best sum rate and the inputs achieving
    it. Raises [Invalid_argument] when some alphabet is not binary. *)

val time_shared_region :
  Protocol.t -> Bound.kind -> network -> inputs list ->
  Numerics.Vec2.t list
(** The |Q| > 1 evaluation: the down-closed convex hull of the regions
    obtained at each input tuple (time sharing across them). Raises
    [Invalid_argument] on an empty list. *)

val bec_network :
  e_ab:float -> e_ar:float -> e_br:float -> e_mac:float -> network
(** All-erasure network: BEC links and an erasure-XOR MAC at the relay
    ([Yr] is the XOR or an erasure). Binary inputs, ternary outputs. *)

val quaternary_network : p:float -> network
(** A 4-ary (QPSK-like) network: every link is a uniform-error channel
    over a 4-symbol alphabet (correct with probability [1 - p], each
    wrong symbol with [p / 3]); the relay MAC observes the modulo-4 sum
    through the same noise. Exercises non-binary alphabets end to end. *)
