(** Fading performance of the protocols.

    Section IV of the paper works with quasi-static fading and full CSI:
    within each block the nodes know the realised gains and can pick the
    LP-optimal phase schedule for that block. Two standard long-run
    figures of merit follow:

    - the {b ergodic} (long-run average) optimal sum rate
      [E_G max_{Delta} (Ra + Rb)], achieved by per-block adaptation;
    - the {b outage probability} of a schedule fixed in advance: the
      chance that a target rate pair is infeasible at the realised
      gains, and the resulting [epsilon]-outage rate.

    All expectations are Monte-Carlo averages over an explicit fading
    process, so they are deterministic given the seed. *)

type estimate = {
  mean : float;
  ci95 : float * float;  (** normal-approximation confidence interval *)
  blocks : int;
}

val ergodic_sum_rate :
  ?blocks:int -> Channel.Fading.t -> power:float -> Protocol.t -> estimate
(** [ergodic_sum_rate fading ~power p] estimates the full-CSI adaptive
    sum rate of protocol [p] over [blocks] (default 2000) fading draws.
    Each draw is one sum-rate LP solved from its compiled template
    ({!Rate_region.solve_template_into}); samples are not memoized, and each
    equals [(Optimize.sum_rate p Bound.Inner s).sum_rate] at the draw's
    scenario [s] bit for bit. The samples are not timed one by one: one
    [ergodic.cell] span (arguments [protocol], [power], [lps]) covers
    the estimate. *)

val outage_probability :
  ?blocks:int -> Channel.Fading.t -> power:float -> Protocol.t ->
  ra:float -> rb:float -> estimate
(** Probability that the rate pair is infeasible (no phase schedule
    supports it) at the realised gains — the quasi-static outage of a
    rate-(ra, rb) service. *)

val epsilon_outage_sum_rate :
  ?blocks:int -> ?tol:float -> Channel.Fading.t -> power:float ->
  Protocol.t -> epsilon:float -> float
(** The largest symmetric-service sum rate [2 r] such that the pair
    [(r, r)] has outage probability at most [epsilon], found by
    bisection on [r]. *)

val outage_figure :
  ?blocks:int -> ?samples:int -> ?power_db:float ->
  ?mean_gains:Channel.Gains.t -> ?seed:int -> unit -> Figures.figure
(** Extension artifact: outage probability of a symmetric rate pair
    [(r, r)] versus the target sum rate [2 r], one series per protocol,
    under Rayleigh fading. The better protocol shifts the outage curve
    right. *)

val ergodic_table :
  ?blocks:int -> ?powers_db:float list -> ?mean_gains:Channel.Gains.t ->
  ?seed:int -> unit -> Figures.table
(** Extension artifact: ergodic sum rates of all the protocols under
    Rayleigh fading with the Fig. 4 mean gains. Every cell averages the
    same [blocks] draws of one process seeded with [seed], exactly as
    if each had its own fresh process. Each protocol solves its draws
    draw-major (a draw at every power, then the next draw), and one
    [ergodic.cell] span (arguments [protocol], [lps] = blocks x
    powers) covers the protocol's column. *)
