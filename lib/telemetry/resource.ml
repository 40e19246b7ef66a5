(* GC and allocation accounting. All numbers come from the runtime's
   own monotone counters ([Gc.quick_stat] reads live counters without
   walking the heap; [Gc.minor_words] and [Gc.counters] give this
   domain's cumulative allocation), so sampling is cheap enough for per-span use — but it
   is still gated behind [enabled] so the default cost of the layer is
   one atomic load at every probe site. *)

type sample = {
  s_minor_words : float;
  s_major_words : float;
  s_minor_collections : int;
  s_major_collections : int;
  s_alloc_bytes : float;
}

type delta = {
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  alloc_bytes : float;
}

let tracking = Atomic.make false

let enabled () = Atomic.get tracking
let set_enabled b = Atomic.set tracking b

let with_enabled b f =
  let old = Atomic.get tracking in
  Atomic.set tracking b;
  Fun.protect ~finally:(fun () -> Atomic.set tracking old) f

(* On OCaml 5.1 [Gc.allocated_bytes] reads the minor heap in progress
   at one eighth of its words — between collections its minor part
   counts words, not bytes — and catches up when a minor collection
   runs. An accounted LP call or span that a collection happened to
   land in therefore read about 1.8 MB (7/8 of a 256 k-word minor heap) instead
   of a few bytes. A mark takes the minor part from the live
   [Gc.minor_words] instead, on the same one-per-word scale, plus 8 per
   word allocated directly on the major heap (promotion adds equally to
   the major and promoted totals, so it cancels). A delta of marks is
   what [Gc.allocated_bytes] read whenever no collection intervened,
   and does not jump when one does. The begin mark reads the live
   counter last and the end mark first, so neither counts its own
   [Gc.counters] tuple. *)
let alloc_mark_begin () =
  let _, promoted, major = Gc.counters () in
  (8. *. (major -. promoted)) +. Gc.minor_words ()

let alloc_mark_end () =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  (8. *. (major -. promoted)) +. minor

(* [quick_stat]'s minor_words only advances at collection boundaries
   on OCaml 5; [Gc.minor_words] reads the live allocation pointer, so
   small allocations are visible without waiting for a minor GC. The
   allocation total is an [alloc_mark]: a sample reads it last and a
   delta first, so neither counts the other readings. *)
let sample () =
  let q = Gc.quick_stat () in
  let minor_words = Gc.minor_words () in
  let alloc = alloc_mark_begin () in
  { s_minor_words = minor_words;
    s_major_words = q.Gc.major_words;
    s_minor_collections = q.Gc.minor_collections;
    s_major_collections = q.Gc.major_collections;
    s_alloc_bytes = alloc;
  }

let delta_since s0 =
  let alloc = alloc_mark_end () in
  let q = Gc.quick_stat () in
  let minor_words = Gc.minor_words () in
  (* the runtime counters are monotone, but clamp anyway so a delta can
     never go negative (e.g. across a [Gc.counters] reset) *)
  let dfloat a b = Float.max 0. (b -. a) in
  { minor_words = dfloat s0.s_minor_words minor_words;
    major_words = dfloat s0.s_major_words q.Gc.major_words;
    minor_collections = max 0 (q.Gc.minor_collections - s0.s_minor_collections);
    major_collections = max 0 (q.Gc.major_collections - s0.s_major_collections);
    alloc_bytes = dfloat s0.s_alloc_bytes alloc;
  }

let measure f =
  let s0 = sample () in
  let r = f () in
  (r, delta_since s0)

(* ------------------------------------------------------------------ *)
(* Registry aggregation                                                *)
(* ------------------------------------------------------------------ *)

(* Registered at module initialisation so the [gc.*] keys appear in
   every metrics dump (value 0 until something is accounted). *)
let minor_words_c = Metrics.counter "gc.minor_words"
let minor_collections_c = Metrics.counter "gc.minor_collections"
let major_collections_c = Metrics.counter "gc.major_collections"
let alloc_bytes_c = Metrics.counter "gc.alloc_bytes"

let add_to_registry d =
  Metrics.add minor_words_c (int_of_float d.minor_words);
  Metrics.add minor_collections_c d.minor_collections;
  Metrics.add major_collections_c d.major_collections;
  Metrics.add alloc_bytes_c (int_of_float d.alloc_bytes)

let account f =
  let s0 = sample () in
  Fun.protect ~finally:(fun () -> add_to_registry (delta_since s0)) f

(* ------------------------------------------------------------------ *)
(* Span argument rendering                                             *)
(* ------------------------------------------------------------------ *)

let span_args d =
  [ ("gc.minor_words", Json.Float d.minor_words);
    ("gc.major_words", Json.Float d.major_words);
    ("gc.minor_collections", Json.Int d.minor_collections);
    ("gc.major_collections", Json.Int d.major_collections);
    ("gc.alloc_bytes", Json.Float d.alloc_bytes);
  ]
