(** The [bidir-live/2] live file: the one module that writes it, reads
    it back and renders it for [bidir top].

    A run started with [--live FILE] opens the process-wide writer
    ({!open_live}). Instrumented loops (the campaign runner's batches,
    [figures all]'s artifacts, [network]'s stages, [serve]'s select
    loop) note their progress ({!note_progress}) and pulse the writer
    ({!pulse_live}). A pulse at least [interval] seconds after the
    previous heartbeat writes one: first the latest progress record
    noted since the previous heartbeat, if any, then a [heartbeat]
    record whose [registry] is a {!Snapshot} of the metrics that
    changed since the previous heartbeat (the first carries the whole
    registry): counters at their cumulative values, histograms at full
    state. {!close_live} writes one last heartbeat and the [final]
    record. Streaming is observation-only: command outputs are
    byte-identical with it on or off, at any domain count.

    Record shapes (one JSON object per line):
    {v
    {"schema":"bidir-live/2","record":"start","t":T,"interval":S}
    {"record":"progress","t":T,"name":N,"completed":C,"total":M,
     "rate":R,"ci":HW|null,"ci_target":W|null,"eta":E|null}
    {"record":"heartbeat","t":T,"seq":K,"registry":SNAPSHOT}
    {"record":"final","t":T,"heartbeats":K,"events":N}
    v}
    [events] counts the progress records written.

    The writer belongs to the main domain. {!open_live} raises
    [Invalid_argument] on any other domain, and so do {!note_progress},
    {!pulse_live} and {!close_live} while a writer is open. With none
    open they return at once, from any domain, after one load. *)

val schema : string
(** ["bidir-live/2"]. *)

type progress = {
  t : float;                 (** absolute unix time *)
  name : string;             (** "campaign:runner", "figures", … *)
  completed : int;
  total : int;               (** 0 when unknown *)
  rate : float;              (** units per second; 0 when unknown *)
  ci : float option;         (** widest 95% half-width so far *)
  ci_target : float option;
  eta : float option;        (** seconds *)
}

(** {1 Writing} *)

val open_live : ?interval:float -> string -> unit
(** Close any open writer, then truncate the file and write the [start]
    record. [interval] (default 0) is the minimum number of seconds
    between heartbeats; 0 makes every pulse write one. *)

val is_open : unit -> bool
(** A live writer is open. *)

val note_progress :
  name:string -> completed:int -> total:int -> ?rate:float ->
  ?ci_half_width:float -> ?ci_target:float -> ?eta_seconds:float ->
  unit -> unit
(** Keep this progress, stamped with the current time, for the next
    heartbeat; it replaces one noted before. A no-op with no writer. *)

val pulse_live : unit -> unit
(** Write a heartbeat if the interval has elapsed since the last one.
    Counts [telemetry.stream.heartbeats], and
    [telemetry.stream.events] for the progress record. *)

val close_live : unit -> unit
(** One last heartbeat, the [final] record, and close the file. *)

(** {1 Reading} *)

type state

val create : unit -> state

val feed_line : state -> string -> unit
(** Fold one line (blank lines are skipped). Counters and histograms
    in a heartbeat's registry replace those of the same name. Unknown
    record kinds are skipped. A line that is not JSON, and a record
    with a required field missing or ill-typed, is one parse error and
    changes nothing else: [record] everywhere, the [schema] of
    [start], [completed] and [total] of [progress], [seq] and a
    [registry] that {!Snapshot.of_json} accepts in [heartbeat],
    [heartbeats] and [events] in [final]. *)

val feed_string : state -> string -> unit
(** Fold every line of a chunk of file contents. *)

val last_t : state -> float
(** Latest timestamp of an applied record; 0 before any. *)

val heartbeats : state -> int
val finished : state -> bool
(** The [final] record has been seen. *)

val records : state -> int
(** Records applied. *)

val parse_errors : state -> int

val monotone : state -> bool
(** No progress record went backwards and heartbeat [seq] numbers
    strictly increased. *)

val progress : state -> progress option
(** The latest progress record. *)

val registry : state -> Snapshot.t
(** Every counter and histogram folded so far, name-sorted. *)

val render : state -> string
(** Multi-line frame: progress bar (the count alone when the total is
    unknown) and ETA, throughput, CI half-width
    against its target, percentiles of the non-empty [*_seconds]
    histograms, pool busy/idle, GC totals.
    A pure function of the records fed, never of the wall clock. *)

val to_json : state -> Json.t
(** The same frame as JSON (for [bidir top --once --json]). *)
