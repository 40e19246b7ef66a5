type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Non-finite floats have no JSON representation; render as null so the
   document always parses. "%.17g" round-trips every finite double. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec emit buf ~indent ~level v =
  let nl pad =
    match indent with
    | None -> ()
    | Some step ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (step * pad) ' ')
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        nl (level + 1);
        emit buf ~indent ~level:(level + 1) item)
      items;
    nl level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_char buf ',';
        nl (level + 1);
        escape_string buf k;
        Buffer.add_char buf ':';
        if indent <> None then Buffer.add_char buf ' ';
        emit buf ~indent ~level:(level + 1) item)
      fields;
    nl level;
    Buffer.add_char buf '}'

let render ~indent v =
  let buf = Buffer.create 1024 in
  emit buf ~indent ~level:0 v;
  Buffer.contents buf

let to_string v = render ~indent:None v
let to_string_pretty v = render ~indent:(Some 2) v ^ "\n"

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

exception Fail of string * int

(* The parser state. Every parsing function is a top-level function of
   the reader, so a parse allocates no closures, and a look at the next
   byte allocates no option. *)
type reader = { s : string; n : int; mutable pos : int }

let fail r msg = raise (Fail (msg, r.pos))

let[@inline] next_is r c =
  r.pos < r.n && Char.equal (String.unsafe_get r.s r.pos) c

let[@inline] skip_ws r =
  while
    r.pos < r.n
    &&
    match String.unsafe_get r.s r.pos with
    | ' ' | '\t' | '\n' | '\r' -> true
    | _ -> false
  do
    r.pos <- r.pos + 1
  done

let[@inline] expect r c =
  if next_is r c then r.pos <- r.pos + 1
  else fail r (Printf.sprintf "expected %C" c)

let rec word_at s pos word i =
  i >= String.length word
  || Char.equal (String.unsafe_get s (pos + i)) (String.unsafe_get word i)
     && word_at s pos word (i + 1)

let literal r word value =
  let l = String.length word in
  if r.pos + l <= r.n && word_at r.s r.pos word 0 then begin
    r.pos <- r.pos + l;
    value
  end
  else fail r ("expected " ^ word)

let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

(* exactly four hex digits ([int_of_string "0x…"] would also accept
   underscores and sign characters) *)
let read_hex4 r =
  if r.pos + 4 > r.n then fail r "truncated \\u escape";
  let v = ref 0 in
  for _ = 1 to 4 do
    let d =
      match String.unsafe_get r.s r.pos with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> fail r "bad \\u escape"
    in
    v := (!v lsl 4) lor d;
    r.pos <- r.pos + 1
  done;
  !v

let read_escape r buf =
  if r.pos >= r.n then fail r "unterminated escape";
  let e = String.unsafe_get r.s r.pos in
  r.pos <- r.pos + 1;
  match e with
  | '"' -> Buffer.add_char buf '"'
  | '\\' -> Buffer.add_char buf '\\'
  | '/' -> Buffer.add_char buf '/'
  | 'b' -> Buffer.add_char buf '\b'
  | 'f' -> Buffer.add_char buf '\012'
  | 'n' -> Buffer.add_char buf '\n'
  | 'r' -> Buffer.add_char buf '\r'
  | 't' -> Buffer.add_char buf '\t'
  | 'u' ->
    let code = read_hex4 r in
    let code =
      (* a high surrogate followed by [\uDC00-\uDFFF] combines into one
         supplementary code point (so "😀" is U+1F600); a lone
         surrogate stays as-is (WTF-8), matching the parser's otherwise
         lenient handling of raw bytes *)
      if
        code >= 0xD800 && code <= 0xDBFF
        && r.pos + 1 < r.n
        && r.s.[r.pos] = '\\'
        && r.s.[r.pos + 1] = 'u'
      then begin
        let saved = r.pos in
        r.pos <- r.pos + 2;
        let low = read_hex4 r in
        if low >= 0xDC00 && low <= 0xDFFF then
          0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
        else begin
          r.pos <- saved;
          code
        end
      end
      else code
    in
    add_utf8 buf code
  | _ -> fail r "unknown escape"

(* the rest of a string with escapes, from [r.pos] *)
let rec string_tail r buf =
  if r.pos >= r.n then fail r "unterminated string";
  let c = String.unsafe_get r.s r.pos in
  r.pos <- r.pos + 1;
  if c = '"' then Buffer.contents buf
  else begin
    if c = '\\' then read_escape r buf else Buffer.add_char buf c;
    string_tail r buf
  end

(* index of the first quote or backslash at or after [i], or [n] *)
let rec plain_end s n i =
  if i >= n then n
  else
    match String.unsafe_get s i with
    | '"' | '\\' -> i
    | _ -> plain_end s n (i + 1)

(* A string without escapes, the common case, is one [String.sub]. *)
let parse_string r =
  expect r '"';
  let start = r.pos in
  let stop = plain_end r.s r.n start in
  if stop < r.n && String.unsafe_get r.s stop = '"' then begin
    r.pos <- stop + 1;
    String.sub r.s start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    Buffer.add_substring buf r.s start (stop - start);
    r.pos <- stop;
    string_tail r buf
  end

let rec number_end s n i =
  if i >= n then i
  else
    match String.unsafe_get s i with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> number_end s n (i + 1)
    | _ -> i

let float_token r s =
  match float_of_string_opt s with
  | Some f -> Float f
  | None -> fail r "bad number"

let parse_number r =
  (* a JSON number starts with '-' or a digit; '+', '.', 'e' may only
     appear later (OCaml's [of_string] would accept "+1" and ".5") *)
  (match String.unsafe_get r.s r.pos with
  | '-' | '0' .. '9' -> ()
  | _ -> fail r "expected a value");
  let start = r.pos in
  let stop = number_end r.s r.n start in
  r.pos <- stop;
  let s = String.sub r.s start (stop - start) in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then
    float_token r s
  else
    match int_of_string_opt s with Some i -> Int i | None -> float_token r s

let rec parse_value r =
  skip_ws r;
  if r.pos >= r.n then fail r "unexpected end of input";
  match String.unsafe_get r.s r.pos with
  | 'n' -> literal r "null" Null
  | 't' -> literal r "true" (Bool true)
  | 'f' -> literal r "false" (Bool false)
  | '"' -> String (parse_string r)
  | '[' ->
    r.pos <- r.pos + 1;
    skip_ws r;
    if next_is r ']' then begin
      r.pos <- r.pos + 1;
      List []
    end
    else begin
      let first = parse_value r in
      List (first :: items r)
    end
  | '{' ->
    r.pos <- r.pos + 1;
    skip_ws r;
    if next_is r '}' then begin
      r.pos <- r.pos + 1;
      Obj []
    end
    else begin
      let first = field r in
      Obj (first :: fields r)
    end
  | _ -> parse_number r

and[@tail_mod_cons] items r =
  skip_ws r;
  if next_is r ',' then begin
    r.pos <- r.pos + 1;
    let v = parse_value r in
    v :: items r
  end
  else begin
    expect r ']';
    []
  end

and field r =
  skip_ws r;
  let k = parse_string r in
  skip_ws r;
  expect r ':';
  let v = parse_value r in
  (k, v)

and[@tail_mod_cons] fields r =
  skip_ws r;
  if next_is r ',' then begin
    r.pos <- r.pos + 1;
    let kv = field r in
    kv :: fields r
  end
  else begin
    expect r '}';
    []
  end

let parse input =
  let r = { s = input; n = String.length input; pos = 0 } in
  match
    let v = parse_value r in
    skip_ws r;
    if r.pos <> r.n then fail r "trailing input";
    v
  with
  | v -> Ok v
  | exception Fail (msg, at) ->
    Error (Printf.sprintf "%s at offset %d" msg at)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let equal (a : t) (b : t) = a = b
