(* Storage. Every entry occupies one contiguous, 8-byte-aligned record
   in an arena of [Bytes] chunks:

     [0, 8)                         hash of the key
     [8, 16)                        key length lsl 32 lor value length
     [16, 16 + klen)                key bytes
     [16 + klen, 16 + klen + vlen)  value bytes, padded to a multiple of 8

   A location is a chunk number lsl 32 lor an offset in that chunk. The
   open-addressing index holds [location + 1] of each entry's record, 0
   marking an empty slot.

   Chunks are never copied or freed: when the current chunk is full the
   next one is twice its size (up to 64 times the first), and [clear]
   restarts filling at chunk 0 so a cleared table refills the chunks it
   already has. *)

let header = 16
let first_chunk = 16_384

type t = {
  lock : Mutex.t;
  hits : Telemetry.Metrics.counter option;
  misses : Telemetry.Metrics.counter option;
  mutable index : int array; (* empty before the first insert, else 2^k *)
  mutable count : int;
  mutable chunks : Bytes.t array;
  mutable current : int;
  mutable fill : int; (* bytes used in the current chunk *)
}

(* Run by [clear_all]: every table's [clear], and caches that live
   outside a table (per-domain warm-start solver slots, for instance)
   invalidating themselves, so "cold cache" stays cold for every layer.
   Tables are module-level globals in practice, so the list stays small
   and is never pruned. *)
let hooks : (unit -> unit) list ref = ref []
let hooks_lock = Mutex.create ()

let on_clear_all f =
  Mutex.lock hooks_lock;
  hooks := f :: !hooks;
  Mutex.unlock hooks_lock

let clear_all () =
  Mutex.lock hooks_lock;
  let hs = !hooks in
  Mutex.unlock hooks_lock;
  List.iter (fun f -> f ()) hs

let clear t =
  Mutex.lock t.lock;
  Array.fill t.index 0 (Array.length t.index) 0;
  t.count <- 0;
  t.current <- 0;
  t.fill <- 0;
  Mutex.unlock t.lock

(* Nothing is allocated before the first insert, so a table that is
   never filled costs a few words. *)
let create ?name () =
  let metric kind =
    Option.map
      (fun n -> Telemetry.Metrics.counter (Printf.sprintf "memo.%s.%s" n kind))
      name
  in
  let t =
    { lock = Mutex.create ();
      hits = metric "hits";
      misses = metric "misses";
      index = [||];
      count = 0;
      chunks = [||];
      current = 0;
      fill = 0;
    }
  in
  on_clear_all (fun () -> clear t);
  t

let length t =
  Mutex.lock t.lock;
  let n = t.count in
  Mutex.unlock t.lock;
  n

(* Reserve [need] consecutive bytes and return their location. *)
let reserve t need =
  let n = Array.length t.chunks in
  if n > 0 && t.fill + need <= Bytes.length t.chunks.(t.current) then begin
    let loc = (t.current lsl 32) lor t.fill in
    t.fill <- t.fill + need;
    loc
  end
  else begin
    let next = if n = 0 then 0 else t.current + 1 in
    if next = n || Bytes.length t.chunks.(next) < need then begin
      let grown =
        if next = 0 then first_chunk
        else min (2 * Bytes.length t.chunks.(next - 1)) (64 * first_chunk)
      in
      let c = Bytes.create (max need grown) in
      if next = n then t.chunks <- Array.append t.chunks [| c |]
      else t.chunks.(next) <- c
    end;
    t.current <- next;
    t.fill <- need;
    next lsl 32
  end

let chunk t loc = Array.unsafe_get t.chunks (loc lsr 32)
let offset loc = loc land 0xffff_ffff

(* Native-endian 8-byte loads and stores without a bounds check. Every
   access lies inside a key or inside a record this module wrote, and a
   record is only ever read back by the process that wrote it. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let word b i = Int64.to_int (get64 b i)
let set_word b i n = set64 b i (Int64.of_int n)

let mix h w =
  let h = (h lxor w) * 0x100000001b3 in
  h lxor (h lsr 29)

(* A non-negative hash of all of [k]'s bytes: 8-byte words alternating
   between two lanes, whose multiply chains the CPU overlaps, then the
   tail bytes one by one. *)
let hash k =
  let len = Bytes.length k in
  let a = ref (mix 0x2545f4914f6cdd1d len) and b = ref 0x1b873593 in
  let i = ref 0 in
  while !i + 16 <= len do
    a := mix !a (word k !i);
    b := mix !b (word k (!i + 8));
    i := !i + 16
  done;
  if !i + 8 <= len then begin
    a := mix !a (word k !i);
    i := !i + 8
  end;
  while !i < len do
    a := mix !a (Char.code (Bytes.unsafe_get k !i));
    incr i
  done;
  let h = mix !a !b in
  (h lxor (h lsr 32)) land max_int

(* Top-level loops with every operand a parameter: a local recursive
   function would allocate a closure on every lookup. *)
let rec bytes_match c off k i =
  if i + 8 <= Bytes.length k then
    (get64 c (off + i) : int64) = get64 k i && bytes_match c off k (i + 8)
  else
    i >= Bytes.length k
    || Char.equal (Bytes.unsafe_get c (off + i)) (Bytes.unsafe_get k i)
       && bytes_match c off k (i + 1)

(* [k] against the record at [loc]: hash, length, then the bytes. *)
let matches t loc k h =
  let c = chunk t loc and off = offset loc in
  word c off = h
  && word c (off + 8) lsr 32 = Bytes.length k
  && bytes_match c (off + header) k 0

let rec probe t mask k h i =
  let s = Array.unsafe_get t.index i in
  if s = 0 then -1
  else if matches t (s - 1) k h then s - 1
  else probe t mask k h ((i + 1) land mask)

(* Location of [k]'s record, or -1. Caller holds the lock. *)
let lookup t k h =
  let mask = Array.length t.index - 1 in
  if mask < 0 then -1 else probe t mask k h (h land mask)

(* [decode] of the value of the record at [loc]. The caller holds the
   lock, since a [clear] lets the next insert overwrite the record; it
   is released here, also when [decode] raises. *)
let decode_unlock t loc decode =
  let c = chunk t loc and off = offset loc in
  let lens = word c (off + 8) in
  match decode c (off + header + (lens lsr 32)) (lens land 0xffff_ffff) with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let rec insert_slot index mask i slot =
  if Array.unsafe_get index i = 0 then Array.unsafe_set index i slot
  else insert_slot index mask ((i + 1) land mask) slot

let add_slot index h slot =
  let mask = Array.length index - 1 in
  insert_slot index mask (h land mask) slot

(* Keep the index at most half full. Rehashing reads each record's
   stored hash, never its key. *)
let grow_index t =
  let n = Array.length t.index in
  if 2 * (t.count + 1) > n then begin
    let bigger = Array.make (max 1024 (2 * n)) 0 in
    Array.iter
      (fun s ->
        if s <> 0 then
          add_slot bigger (word (chunk t (s - 1)) (offset (s - 1))) s)
      t.index;
    t.index <- bigger
  end

(* Caller holds the lock and has checked that [k] is absent. *)
let insert t k h v =
  grow_index t;
  let klen = Bytes.length k and vlen = String.length v in
  let loc = reserve t ((header + klen + vlen + 7) land lnot 7) in
  let c = chunk t loc and off = offset loc in
  set_word c off h;
  set_word c (off + 8) ((klen lsl 32) lor vlen);
  Bytes.blit k 0 c (off + header) klen;
  Bytes.blit_string v 0 c (off + header + klen) vlen;
  t.count <- t.count + 1;
  add_slot t.index h (loc + 1)

let bump = function
  | Some c -> Telemetry.Metrics.incr c
  | None -> ()

let find_or_add t key ~decode compute =
  let k = Bytes.unsafe_of_string key in
  let h = hash k in
  Mutex.lock t.lock;
  let loc = lookup t k h in
  if loc >= 0 then begin
    let v = decode_unlock t loc decode in
    bump t.hits;
    v
  end
  else begin
    Mutex.unlock t.lock;
    bump t.misses;
    let v = compute () in
    Mutex.lock t.lock;
    let loc = lookup t k h in
    if loc >= 0 then decode_unlock t loc decode (* another domain raced us *)
    else begin
      insert t k h v;
      Mutex.unlock t.lock;
      decode (Bytes.unsafe_of_string v) 0 (String.length v)
    end
  end

let find_opt t key =
  let k = Bytes.unsafe_of_string key in
  let h = hash k in
  Mutex.lock t.lock;
  let loc = lookup t k h in
  if loc >= 0 then begin
    let v = decode_unlock t loc Bytes.sub_string in
    bump t.hits;
    Some v
  end
  else begin
    Mutex.unlock t.lock;
    bump t.misses;
    None
  end

let put t key v =
  let k = Bytes.unsafe_of_string key in
  let h = hash k in
  Mutex.lock t.lock;
  if lookup t k h < 0 then insert t k h v;
  Mutex.unlock t.lock
