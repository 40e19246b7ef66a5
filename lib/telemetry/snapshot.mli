(** Point-in-time captures of the whole {!Metrics} registry, their JSON
    persistence, and structural diffing under a per-metric tolerance
    policy — the primitive behind baseline files and the CLI regression
    gate ([bidir check]).

    A snapshot records every registered counter value and a full copy of
    every histogram (geometry and all bucket cells, not just summary
    percentiles), plus a label and capture time. Because histograms are
    persisted losslessly, [capture ()] and [load] of its saved form are
    indistinguishable, and diffing is exact where the underlying data
    is exact.

    Diffing classifies each metric by a {!policy}:
    - deterministic metrics (all counters, and value-distribution
      histograms such as [netsim.queue_depth]) must match {e exactly} —
      any drift is reported as a correctness signal;
    - wall-time histograms ([lp.solve_seconds],
      [engine.pool.chunk_seconds], [phase.*] — any name ending in
      [_seconds] or starting with [phase.]) must keep an identical
      sample count but only need their mean within a relative band. *)

type t = {
  label : string;
  created_at : float;        (** unix seconds at capture *)
  counters : (string * int) list;           (** name-sorted *)
  histograms : (string * Histogram.t) list; (** name-sorted, private copies *)
}

val capture : ?label:string -> unit -> t
(** Capture the current state of the {!Metrics} registry. The contained
    histograms are copies: later observations don't mutate the capture. *)

val schema : string
(** Schema tag written into (and required from) the JSON form,
    ["bidir-snapshot/1"]. *)

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result

val of_string : string -> (t, string) result
(** Parse then {!of_json}. *)

val save : string -> t -> unit
(** Write the pretty-printed JSON form to a file. *)

val load : string -> (t, string) result
(** Read a file saved by {!save}. [Error] on IO failure, parse failure
    or schema mismatch. *)

(** {1 Diffing} *)

type rule =
  | Exact
      (** Counters: values equal. Histograms: same geometry, identical
          bucket counts, and equal sum/min/max. *)
  | Time_band of float
      (** Histograms only (counters under this rule still compare
          exactly): sample count must match exactly; means may differ by
          the given relative fraction (plus a 50 µs absolute slack for
          micro-histograms). *)
  | Budget
      (** Resources spent rather than values computed: gated one-sided.
          At or under the baseline passes — a decrease is reported as an
          improvement ({!Within_band}) — while exceeding the baseline is
          {!Drift}. Counters (simplex pivots, basis refactorisations,
          [linprog.alloc_bytes]) compare their exact values; histograms
          ([campaign.pool_idle_seconds]) compare their summed value with
          50% relative / 1 ms absolute slack for scheduler noise. *)
  | Ignore
      (** Always passes; the metric still appears in the report. *)

type policy = kind:[ `Counter | `Histogram ] -> string -> rule

val default_policy : ?tolerance:float -> unit -> policy
(** Counters are [Exact], except the work budgets [linprog.pivots],
    [linprog.refactor_eliminations], [network.assignment_pivots] and
    [linprog.alloc_bytes], which are [Budget] (a regression fails the
    gate; an improvement passes without a baseline refresh), and the
    [gc.*] process totals and the retired counters ([engine.lp_solves],
    [telemetry.stream.dropped_events], [telemetry.log.*], still present
    in older baselines), which are [Ignore] (GC totals move with any
    code change; the gated slice is [linprog.alloc_bytes]). Histograms:
    [campaign.pool_idle_seconds] is [Budget] (one-sided on its sum);
    names ending in [_seconds] / [.seconds] or starting with [phase.]
    get [Time_band tolerance] (default 0.5, i.e. ±50%) — this covers
    the [engine.pool.*_seconds] utilization histograms; the
    scheduling-noise ratio [engine.pool.chunk_imbalance] and the
    retired per-solve pivot distributions ([linprog.pivots_per_solve],
    [linprog.pivots_per_warm_solve]) and heartbeat timer
    ([telemetry.stream.flush_seconds]), still present in older
    baselines, are [Ignore]; every other histogram is [Exact]. *)

type value =
  | Counter of int
  | Hist of { count : int; sum : float; mean : float; min_v : float; max_v : float }

type status =
  | Match        (** identical under the rule *)
  | Within_band  (** differs, but inside a [Time_band] — not a violation *)
  | Drift        (** violation: outside the rule's tolerance *)
  | Missing      (** violation: in the baseline, absent from the current run *)
  | New          (** in the current run only — reported but not a violation *)

type comparison = {
  metric : string;
  rule : rule;
  baseline : value option;  (** [None] iff [status = New] *)
  current : value option;   (** [None] iff [status = Missing] *)
  status : status;
  detail : string;          (** human explanation; [""] on exact match *)
}

type diff = {
  base_label : string;
  cur_label : string;
  comparisons : comparison list;  (** one per metric name, sorted *)
}

val diff : ?policy:policy -> t -> t -> diff
(** [diff base current] compares every metric present in either
    snapshot. Defaults to {!default_policy}[ ()]. *)

val violation : comparison -> bool
(** [Drift] or [Missing]. *)

val violations : diff -> comparison list

val ok : diff -> bool
(** No violations (the regression gate's pass condition). *)

val identical : diff -> bool
(** Every comparison is an exact [Match] — the "empty diff": what
    diffing a snapshot against a reload of itself yields. *)
