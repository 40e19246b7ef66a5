(* Statistics over raw samples. Every end-to-end percentile comes from
   the sorted samples themselves, never from a bucketed histogram: the
   telemetry histograms' buckets are ~19% wide, so a percentile read
   from them can jump a whole bucket between two runs of one program. *)

let sorted samples =
  let s = Array.copy samples in
  Array.sort Float.compare s;
  s

(* Median of an already sorted array (mean of the two middle values on
   an even count). *)
let median_sorted s =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let median samples = median_sorted (sorted samples)

let mean samples =
  let n = Array.length samples in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. samples /. float_of_int n

type tail = {
  pct : float;    (** the percentile reported, e.g. 96.5 *)
  value : float;  (** the sample at that percentile *)
  n : int;        (** samples it was read from *)
  beyond : int;   (** samples strictly above it by rank *)
}

(* The highest percentile that still has 10 samples beyond it, capped at
   p95: with [n] sorted samples the value is the one with
   [b = max 10 (ceil (n / 20))] samples ranked above it, and its
   percentile is [100 * (n - b) / n]. The percentile moves smoothly with
   [n] instead of stepping between fixed ladder rungs, so a run that
   finishes a few more ops reads the same tail. Past p95 the tail of
   40 us requests on a shared 2-core host measures the scheduler rather
   than the program, and does not repeat from one run to the next. *)
let tail samples =
  let min_beyond = 10 in
  let s = sorted samples in
  let n = Array.length s in
  if n <= min_beyond then
    invalid_arg
      (Printf.sprintf "Stats.tail: %d samples, need more than %d" n min_beyond);
  let b = max min_beyond ((n + 19) / 20) in
  { pct = 100. *. float_of_int (n - b) /. float_of_int n;
    value = s.(n - 1 - b);
    n;
    beyond = b;
  }

(* Nearest-rank quantile, q in [0, 1]. *)
let quantile samples q =
  let s = sorted samples in
  let n = Array.length s in
  if n = 0 then 0.
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) i))

(* An op either completed with a verified output, completed with a
   wrong one, or raised / got a non-200 answer. The latter two are both
   failures. *)
type outcome = Correct | Wrong | Error

type tally = {
  mutable attempted : int;
  mutable failed : int;
}

let tally () = { attempted = 0; failed = 0 }

let record t = function
  | Correct -> t.attempted <- t.attempted + 1
  | Wrong | Error ->
    t.attempted <- t.attempted + 1;
    t.failed <- t.failed + 1

let failed_share t =
  if t.attempted = 0 then 0.
  else float_of_int t.failed /. float_of_int t.attempted

(* A growable float buffer for raw latency samples. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end
