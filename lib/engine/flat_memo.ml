(* Storage. Every entry occupies one contiguous, 8-byte-aligned record
   in the key arena:

     [0, 8)          hash of the key
     [8, 16)         key length lsl 32 lor value length
     [16, 24)        location of the value in the value arena
     [24, 24 + klen) key bytes, padded to a multiple of 8

   and its value occupies [vlen] consecutive slots of one value chunk.
   A location is a chunk number lsl 32 lor an offset in that chunk. The
   open-addressing index holds [location + 1] of each entry's record, 0
   marking an empty slot. *)

(* An arena is a list of chunks that are never copied or freed: when
   the current chunk is full the next one is twice its size (up to 64
   times the first), and [rewind] restarts filling at chunk 0 so a
   cleared table refills the chunks it already has. *)
type 'c arena = {
  mutable chunks : 'c array;
  mutable current : int;
  mutable fill : int; (* units used in the current chunk *)
  first : int; (* size of chunk 0, in units *)
  make : int -> 'c;
  size : 'c -> int;
}

let arena ~first ~make ~size =
  { chunks = [||]; current = 0; fill = 0; first; make; size }

let rewind a =
  a.current <- 0;
  a.fill <- 0

(* Reserve [need] consecutive units and return their location. *)
let reserve a need =
  let n = Array.length a.chunks in
  if n > 0 && a.fill + need <= a.size a.chunks.(a.current) then begin
    let loc = (a.current lsl 32) lor a.fill in
    a.fill <- a.fill + need;
    loc
  end
  else begin
    let next = if n = 0 then 0 else a.current + 1 in
    if next = n || a.size a.chunks.(next) < need then begin
      let grown =
        if next = 0 then a.first
        else min (2 * a.size a.chunks.(next - 1)) (64 * a.first)
      in
      let c = a.make (max need grown) in
      if next = n then a.chunks <- Array.append a.chunks [| c |]
      else a.chunks.(next) <- c
    end;
    a.current <- next;
    a.fill <- need;
    next lsl 32
  end

let chunk a loc = Array.unsafe_get a.chunks (loc lsr 32)
let offset loc = loc land 0xffff_ffff

let header = 24

type t = {
  lock : Mutex.t;
  hits : Telemetry.Metrics.counter option;
  misses : Telemetry.Metrics.counter option;
  mutable index : int array; (* empty before the first insert, else 2^k *)
  mutable count : int;
  keys : Bytes.t arena;
  values : floatarray arena;
}

let clear t =
  Mutex.lock t.lock;
  Array.fill t.index 0 (Array.length t.index) 0;
  t.count <- 0;
  rewind t.keys;
  rewind t.values;
  Mutex.unlock t.lock

(* Nothing is allocated before the first insert, so a table that is
   never filled costs a few words. The first chunks are 16 KB each. *)
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
      keys = arena ~first:16_384 ~make:Bytes.create ~size:Bytes.length;
      values =
        arena ~first:2048 ~make:Float.Array.create ~size:Float.Array.length;
    }
  in
  Memo.on_clear_all (fun () -> clear t);
  t

let length t =
  Mutex.lock t.lock;
  let n = t.count in
  Mutex.unlock t.lock;
  n

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
  let c = chunk t.keys loc and off = offset loc in
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

(* A fresh copy of the value of the record at [loc]. Caller holds the
   lock, since a [clear] lets the next insert overwrite the slots. *)
let read_value t loc =
  let c = chunk t.keys loc and off = offset loc in
  let vlen = word c (off + 8) land 0xffff_ffff in
  let vloc = word c (off + 16) in
  let src = chunk t.values vloc and voff = offset vloc in
  let v = Array.create_float vlen in
  for i = 0 to vlen - 1 do
    Array.unsafe_set v i (Float.Array.unsafe_get src (voff + i))
  done;
  v

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
          add_slot bigger (word (chunk t.keys (s - 1)) (offset (s - 1))) s)
      t.index;
    t.index <- bigger
  end

(* Caller holds the lock and has checked that [k] is absent. *)
let insert t k h (v : float array) =
  grow_index t;
  let klen = Bytes.length k and vlen = Array.length v in
  let vloc = reserve t.values vlen in
  let dst = chunk t.values vloc and voff = offset vloc in
  for i = 0 to vlen - 1 do
    Float.Array.unsafe_set dst (voff + i) (Array.unsafe_get v i)
  done;
  let loc = reserve t.keys (header + ((klen + 7) land lnot 7)) in
  let c = chunk t.keys loc and off = offset loc in
  set_word c off h;
  set_word c (off + 8) ((klen lsl 32) lor vlen);
  set_word c (off + 16) vloc;
  Bytes.blit k 0 c (off + header) klen;
  t.count <- t.count + 1;
  add_slot t.index h (loc + 1)

let bump = function
  | Some c -> Telemetry.Metrics.incr c
  | None -> ()

let find_or_add t key compute =
  if not (Memo.enabled ()) then compute ()
  else begin
    let k = Bytes.unsafe_of_string key in
    let h = hash k in
    Mutex.lock t.lock;
    let loc = lookup t k h in
    if loc >= 0 then begin
      let v = read_value t loc in
      Mutex.unlock t.lock;
      Stats.record_hit ();
      bump t.hits;
      v
    end
    else begin
      Mutex.unlock t.lock;
      Stats.record_miss ();
      bump t.misses;
      let v = compute () in
      Mutex.lock t.lock;
      let loc = lookup t k h in
      let stored =
        if loc >= 0 then read_value t loc (* another domain raced us *)
        else begin
          insert t k h v;
          v
        end
      in
      Mutex.unlock t.lock;
      stored
    end
  end
