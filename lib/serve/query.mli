(** The serving layer's query language: a small closed set of
    questions about the bidirectional relay channel, with a canonical
    cache key and a deterministic JSON answer.

    A query is a pure function of its parameters — answers carry no
    timestamps and every float is quantized to 1e-6 before rendering
    (well above the 1e-9 tolerance of the region's vertex search, far
    below any rate of interest) — so the same query always renders
    byte-identical bytes, whatever the domain count or warm-solver
    history. That is the contract the response cache and the
    cross-domain CI smoke rely on. *)

type kind =
  | Sumrate  (** optimal sum rate, one protocol or all *)
  | Select   (** best protocol at the operating point *)
  | Region   (** achievable-region frontier vertices + area *)

val kind_name : kind -> string
val kind_of_string : string -> kind option

type t = private {
  kind : kind;
  power_db : float;
  gains_db : float * float * float;  (** (g_ab, g_ar, g_br) in dB *)
  bound : Bidir.Bound.kind;
  protocol : Bidir.Protocol.t option;
      (** [Sumrate]: restrict to one protocol ([None] = all five).
          [Region]: the protocol whose region is traced (required). Ignored by
          [Select]. *)
  weights : int;
      (** accepted, range-checked, keyed and echoed, but no longer
          read: the region is exact ({!Bidir.Rate_region.boundary}) *)
}

val make :
  kind:kind ->
  ?power_db:float ->
  ?gains_db:float * float * float ->
  ?bound:Bidir.Bound.kind ->
  ?protocol:Bidir.Protocol.t ->
  ?weights:int ->
  unit ->
  (t, string) result
(** Validated constructor. Defaults: 10 dB transmit power, the paper's
    Fig. 4 gains (0, 5, 7) dB, inner bound, [weights] 33. Rejects
    non-finite or out-of-range parameters ([-60, 60] dB, weights in
    [3, 513]) and a [Region] query without a protocol. *)

val key : t -> string
(** Canonical text key: kind, bound, protocol, weights and the
    %.17g-rendered parameters — injective on distinct queries. What
    [bidir loadgen --dump] writes; the response cache uses
    {!cache_key}. *)

val cache_key : t -> string
(** The response cache's key: 40 bytes holding the kind, bound and
    protocol tags, [weights], and the IEEE bits of [power_db] and the
    three gains. Two queries have equal [cache_key]s exactly when their
    {!key}s are equal, and building one prints no float. *)

val to_json : t -> Telemetry.Json.t
(** Canonical echo of the query (used in the response envelope). *)

val of_params : kind:string -> (string * string) list -> (t, string) result
(** Build from URL query parameters ([power_db], [g_ab], [g_ar],
    [g_br], [bound], [protocol], [weights]); unknown keys are
    rejected. The first occurrence of a parameter counts. *)

val of_json : Telemetry.Json.t -> (t, string) result
(** Build from a POST body object; same fields plus ["kind"]. A JSON
    number is taken as the number it is (an integral float is a valid
    [weights]); a string is read as {!of_params} reads it; [null] is an
    absent field. *)

val eval : t -> Telemetry.Json.t
(** Answer the query (the ["result"] object of the response
    envelope). Runs LP solves via [Bidir.Optimize] / [Bidir.Rate_region],
    which reuse per-(LP shape, domain) warm solver slots — the
    steady-state path allocates near zero beyond the rendered JSON. *)
