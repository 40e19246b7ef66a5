(** Sharded Monte-Carlo replication campaigns.

    A campaign runs [replications] independent replications of a
    workload and aggregates their observations. Replication [i] always
    receives the [i]-th {!Prob.Rng.split} child of a parent generator
    seeded with [config.seed] — a fixed substream tree, independent of
    how the replications are scheduled — and the per-replication results
    are merged sequentially in replication order. Both choices together
    make the aggregate {e byte-identical} for every domain count: domains
    only decide which core computes a replication, never what is computed
    or in which order floats are added.

    Replications are issued in fixed-size batches ([config.batch],
    independent of the domain count). At each batch boundary the campaign
    optionally writes a JSON checkpoint (value sums, counter totals and
    full histogram state — lossless, since floats render round-trippable)
    and optionally applies a sequential stopping rule: once every value
    metric's 95% confidence half-width is at or below [ci_target], no
    further batches are issued. Because batch boundaries and merge order
    are domain-independent, a resumed or early-stopped campaign is also
    byte-identical across domain counts.

    When batch boundaries are unobservable — no checkpoint, no stopping
    rule, no [on_progress] hook and live streaming off — the runner
    fuses the whole campaign into a single pool fan-out instead of one
    per batch, amortising the per-map fan-out cost across the entire
    run. The RNG split order and the sequential replication-order merge
    are identical on both paths, so fusion never changes the result (a
    property the tests assert byte-for-byte).

    Telemetry: the whole run executes under a [campaign.run] span; each
    replication runs under a [campaign.shard] span and its wall-clock
    seconds land in the [campaign.shard_seconds] histogram. The
    [campaign.replications] counter counts completed replications, and
    every per-replication counter [k] of workload [w] accumulates into
    the global counter [campaign.<w>.<k>]. *)

type observation = {
  values : (string * float) list;
      (** scalar metrics — averaged across replications with 95% CIs *)
  counts : (string * int) list;
      (** counters — summed across replications *)
}

type workload = {
  name : string;
  replicate : rep:int -> rng:Prob.Rng.t -> observation;
      (** Run replication [rep]. Must draw all randomness from [rng]
          (its private substream) and must not mutate shared state:
          replications execute concurrently across domains. *)
}

type progress = {
  completed : int;               (** replications accumulated so far *)
  target : int;                  (** [config.replications] *)
  elapsed_seconds : float;       (** since [run] started (this session;
                                     excludes checkpointed work) *)
  rate : float;                  (** replications per second this
                                     session; 0 until measurable *)
  max_half_width : float option; (** widest 95% CI half-width across
                                     value metrics; [None] until some
                                     metric has two samples *)
  ci_target : float option;      (** [config.ci_target], for display *)
  eta_seconds : float option;    (** remaining / rate *)
}

type config = {
  seed : int;            (** root of the substream tree *)
  replications : int;    (** target replication count, > 0 *)
  domains : int;         (** worker domains, >= 1; affects wall time only *)
  batch : int;           (** replications per scheduling round, >= 1 —
                             checkpoint / stopping-rule granularity,
                             deliberately independent of [domains] *)
  checkpoint : string option;  (** write a resumable JSON checkpoint here
                                   after every batch *)
  resume : bool;         (** load [checkpoint] before running and continue
                             from its completed count *)
  ci_target : float option;
      (** absolute 95% half-width target: stop early once every value
          metric is at least this tight (checked at batch boundaries,
          after a minimum of 8 replications) *)
  on_progress : (progress -> unit) option;
      (** called on the campaign's domain at every batch boundary;
          observation-only (must not mutate campaign state). With a
          hook installed — or a {!Telemetry.Live} writer open — the
          runner also notes a [campaign:<workload>] progress record
          and pulses the live writer per batch. *)
}

val default_config :
  ?seed:int -> ?domains:int -> ?batch:int -> ?checkpoint:string ->
  ?resume:bool -> ?ci_target:float -> ?on_progress:(progress -> unit) ->
  replications:int -> unit -> config
(** Defaults: [seed = 42], [domains = 1], [batch = 32], no checkpoint,
    no resume, no stopping rule, no progress hook. *)

type summary = {
  count : int;
  mean : float;
  ci95 : float * float;  (** normal-approximation; degenerate when
                             [count < 2] *)
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;           (** log-bucket histogram estimates *)
}

type result = {
  workload : string;
  seed : int;
  target : int;          (** requested replications *)
  completed : int;       (** actually run (>= target unless stopped early
                             or resumed past it) *)
  stopped_early : bool;  (** the stopping rule fired before [target] *)
  values : (string * summary) list;  (** name-sorted *)
  counters : (string * int) list;    (** name-sorted *)
}

val run : config -> workload -> result
(** Raises [Invalid_argument] on a malformed configuration ([resume]
    without [checkpoint], non-positive sizes) or a checkpoint that fails
    to load or that was written by a different workload or seed. *)

val result_to_json : result -> Telemetry.Json.t
(** Deterministic rendering (sorted metric names, round-trippable
    floats): equal results produce byte-identical JSON, which is how the
    tests and the CI gate compare domain counts and resumed runs. *)
