(** Per-phase power allocation (an ablation of the paper's equal-power
    assumption).

    Section IV assumes every node transmits at power [P] during each of
    its phases — a {e peak} power constraint. Under an {e average
    energy} constraint, a node that is silent for part of the block may
    concentrate its energy into its active phases: a node active for a
    fraction [f] of the block transmits at [P / f]. Because the boosted
    power depends on the phase durations, the problem is no longer a
    linear program; this module optimises the durations by simplex-grid
    search with local refinement. At every candidate schedule the rate
    pairs form the polygon [Ra <= a, Rb <= b, Ra + Rb <= s], whose
    largest sum [min (a + b) s] is evaluated in closed form.

    Restrictions (documented, deliberate): inner bounds only, and a node
    active in several phases (HBC terminals) spreads its energy at
    constant power across them. *)

type constraint_kind =
  | Peak            (** power [P] whenever transmitting — the paper's model *)
  | Average_energy  (** energy [P * block]: power [P / active_fraction] *)

type result = {
  sum_rate : float;
  ra : float;
  rb : float;
  deltas : float array;
  node_powers : float * float * float;
      (** realised transmit powers of (a, b, r) during their active
          phases *)
}

val sum_rate :
  ?resolution:int -> ?refinements:int -> Protocol.t -> Gaussian.scenario ->
  constraint_kind -> result
(** [sum_rate p s kind] maximises [Ra + Rb]. [resolution] (default 20)
    is the simplex grid density per round; [refinements] (default 4)
    the number of local-refinement rounds. Under [Peak] the result
    matches {!Optimize.sum_rate} up to grid error (a library
    self-check). *)

val boost_table :
  ?powers_db:float list -> ?gains:Channel.Gains.t -> unit -> Figures.table
(** Extension artifact: sum rates under the peak versus average-energy
    constraint for each relay protocol, and the relative gain from
    energy banking. *)
