(** Deterministic query pools for synthetic traffic, in the style of
    [Campaign.Workloads]: named mixes over a fixed grid of operating
    points, so a seeded load generator replays the exact same request
    stream run after run. *)

val pool : Query.kind -> Query.t list
(** The fixed query pool for one kind: a grid of transmit powers and
    gain triples (sum-rate and selection queries over all bounds and
    protocols; MABC and TDBC region queries). Never empty. *)

val check_pool : unit -> Query.t list
(** The small fixed pool behind the [check:serve] leg: 16 distinct
    cheap queries, so two passes produce exactly 16 misses then 16
    hits whatever the machine. *)

type mix = (Query.kind * int) list
(** Weighted query-kind mix; weights are relative integers. *)

val default_mix : mix
(** [sumrate=3, select=2, region=1]. *)

val mix_of_string : string -> (mix, string) result
(** Parse ["sumrate=3,select=2,region=1"]-style specs (kinds may be
    omitted; at least one weight must be positive). *)

val mix_to_string : mix -> string

val pick : Prob.Rng.t -> mix -> Query.t
(** Draw a query: kind by mix weight, then uniform over that kind's
    {!pool}. *)
