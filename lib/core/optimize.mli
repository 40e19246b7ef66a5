(** Protocol comparison utilities: optimal sum rates, best-protocol
    selection, and crossover location (the analyses behind the paper's
    Figs. 3 and 4 and its "MABC wins at low SNR / TDBC at high SNR"
    observation). *)

type sum_rate_result = {
  protocol : Protocol.t;
  bound_kind : Bound.kind;
  sum_rate : float;
  ra : float;
  rb : float;
  deltas : float array;
}

val sum_rate : Protocol.t -> Bound.kind -> Gaussian.scenario -> sum_rate_result
(** Optimal sum rate with LP-optimal phase durations: the ra-most
    maximiser of the system's sum-rate LP (see
    {!Rate_region.max_sum_rate}), solved from its compiled template
    ({!Rate_region.solve_template_into}) and memoized on the coefficients
    the template reads. Raises [Invalid_argument] when a mutual
    information of the scenario is not finite and non-negative (a NaN
    or infinite power, say); nothing is memoized then. *)

val all_sum_rates : Bound.kind -> Gaussian.scenario -> sum_rate_result list
(** One result per protocol, in {!Protocol.all} order: equal, bit for
    bit, to {!sum_rate} of each protocol, but computing and validating
    the scenario's mutual informations once. Raises [Invalid_argument]
    as {!sum_rate} does, before anything is memoized. *)

val best_protocol : Bound.kind -> Gaussian.scenario -> sum_rate_result
(** The protocol with the largest optimal sum rate (ties: earlier in
    {!Protocol.all} wins — so DT is preferred only when strictly best). *)

val crossover_powers_db :
  ?lo_db:float -> ?hi_db:float -> ?samples:int ->
  Protocol.t * Protocol.t -> gains:Channel.Gains.t -> Bound.kind ->
  float list
(** Powers (dB) where the two protocols' optimal inner sum rates cross,
    located by sampling then Brent refinement. Default sweep
    [[-10, 25]] dB with 141 samples. *)

val hbc_strict_advantage :
  Gaussian.scenario -> (float * float * float) option
(** Searches the HBC achievable boundary for a rate pair outside both the
    MABC and the TDBC outer bounds (the paper's headline Fig. 4
    observation). Returns [(ra, rb, margin)] for the most-outside point
    found, where [margin] is the smaller of the distances to the two
    outer-bound regions; [None] when no HBC boundary vertex escapes
    both. *)
