type request = {
  meth : string;
  path : string;
  params : (string * string) list;
  version : string;
  headers : (string * string) list;
  body : string;
}

type parse_result = Complete of request * int | Incomplete | Invalid of string

let status_reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 413 -> "Content Too Large"
  | 500 -> "Internal Server Error"
  | _ -> "Unknown"

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let rec needs_decoding s i stop =
  i < stop
  && (match String.unsafe_get s i with
     | '%' | '+' -> true
     | _ -> needs_decoding s (i + 1) stop)

(* [s.[a, b)] percent- and plus-decoded. Text without ['%'] or ['+']
   is one [String.sub]. *)
let decode_sub s a b =
  if not (needs_decoding s a b) then String.sub s a (b - a)
  else begin
    let buf = Buffer.create (b - a) in
    let i = ref a in
    while !i < b do
      (match s.[!i] with
      | '+' -> Buffer.add_char buf ' '
      | '%' when !i + 2 < b ->
        let hi = hex_val s.[!i + 1] and lo = hex_val s.[!i + 2] in
        if hi >= 0 && lo >= 0 then begin
          Buffer.add_char buf (Char.chr ((hi * 16) + lo));
          i := !i + 2
        end
        else Buffer.add_char buf '%'
      | c -> Buffer.add_char buf c);
      incr i
    done;
    Buffer.contents buf
  end

let url_decode s =
  let n = String.length s in
  if needs_decoding s 0 n then decode_sub s 0 n else s

let rec index_from s i stop c =
  if i >= stop then stop
  else if Char.equal (String.unsafe_get s i) c then i
  else index_from s (i + 1) stop c

(* The parameters of [s.[a, b)], a query string: '&'-separated, empty
   items skipped, a name without '=' has the empty value. One scan per
   item finds its end and its first '='. *)
let rec parse_params s a b =
  if a >= b then []
  else begin
    let i = ref a and eq = ref (-1) in
    while !i < b && String.unsafe_get s !i <> '&' do
      if !eq < 0 && String.unsafe_get s !i = '=' then eq := !i;
      incr i
    done;
    let amp = !i in
    if amp = a then parse_params s (a + 1) b
    else
      let kv =
        if !eq >= 0 then (decode_sub s a !eq, decode_sub s (!eq + 1) amp)
        else (decode_sub s a amp, "")
      in
      kv :: parse_params s (amp + 1) b
  end

(* index of the first "\r\n\r\n" at or after [i], or -1. A byte at
   [i + 3] that is neither '\r' nor '\n' rules out the four starts
   [i .. i + 3] at once. *)
let rec find_head_end s n i =
  if i + 3 >= n then -1
  else
    match String.unsafe_get s (i + 3) with
    | '\n' ->
      if
        String.unsafe_get s (i + 2) = '\r'
        && String.unsafe_get s (i + 1) = '\n'
        && String.unsafe_get s i = '\r'
      then i
      else find_head_end s n (i + 1)
    | '\r' -> find_head_end s n (i + 1)
    | _ -> find_head_end s n (i + 4)

(* [String.trim]'s whitespace *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec trim_left s a b =
  if a < b && is_space (String.unsafe_get s a) then trim_left s (a + 1) b
  else a

let rec trim_right s a b =
  if b > a && is_space (String.unsafe_get s (b - 1)) then trim_right s a (b - 1)
  else b

(* The header lines of [s.[a, head_end)], each ending at '\n' or at
   [head_end], trimmed; a line without ':' is skipped. Names are
   lowercased, names and values trimmed. *)
let rec parse_headers s a head_end =
  if a >= head_end then []
  else
    let eol = index_from s a head_end '\n' in
    let la = trim_left s a eol in
    let lb = trim_right s la eol in
    let colon = index_from s la lb ':' in
    if colon >= lb then parse_headers s (eol + 1) head_end
    else
      let na = trim_left s la colon in
      let nb = trim_right s na colon in
      let va = trim_left s (colon + 1) lb in
      let vb = trim_right s va lb in
      let h =
        ( String.lowercase_ascii (String.sub s na (nb - na)),
          String.sub s va (vb - va) )
      in
      h :: parse_headers s (eol + 1) head_end

let version_of s a b =
  if b - a <> 8 then None
  else
    match String.sub s a 8 with
    | ("HTTP/1.1" | "HTTP/1.0") as v -> Some v
    | _ -> None

(* RFC 9110 allows 1*DIGIT only; [int_of_string_opt] alone would also
   take OCaml literals such as 0x2, 0_2 or +2 *)
let is_length v =
  String.for_all (fun c -> c >= '0' && c <= '9') v
  && int_of_string_opt v <> None

(* One pass over the head by index: the request line is everything up
   to the first '\n', trimmed, and must be three fields separated by
   single spaces. *)
let parse ?(max_head = 16 * 1024) ?(max_body = 64 * 1024) s =
  let n = String.length s in
  let head_end = find_head_end s n 0 in
  if head_end < 0 then
    if n > max_head then Invalid "header block too large" else Incomplete
  else if head_end > max_head then Invalid "header block too large"
  else
    let eol = index_from s 0 head_end '\n' in
    let la = trim_left s 0 eol in
    let lb = trim_right s la eol in
    let sp1 = index_from s la lb ' ' in
    let sp2 = index_from s (min lb (sp1 + 1)) lb ' ' in
    (* exactly two spaces, and a version after the second *)
    let version =
      if sp2 < lb && index_from s (sp2 + 1) lb ' ' = lb then
        version_of s (sp2 + 1) lb
      else None
    in
    match version with
    | None -> Invalid ("bad request line: " ^ String.sub s la (lb - la))
    | Some version ->
      let headers = parse_headers s (eol + 1) head_end in
      match List.assoc_opt "content-length" headers with
      | Some v when not (is_length v) -> Invalid ("bad content-length: " ^ v)
      | v ->
        let len = match v with Some v -> int_of_string v | None -> 0 in
        let body_start = head_end + 4 in
        if len > max_body then Invalid "body too large"
        else if n < body_start + len then Incomplete
        else
          let q = index_from s (sp1 + 1) sp2 '?' in
          Complete
            ( { meth = String.sub s la (sp1 - la);
                path = String.sub s (sp1 + 1) (q - sp1 - 1);
                params = (if q < sp2 then parse_params s (q + 1) sp2 else []);
                version;
                headers;
                body = String.sub s body_start len;
              },
              body_start + len )

let header req name =
  List.assoc_opt (String.lowercase_ascii name) req.headers

let wants_close req =
  match List.assoc_opt "connection" req.headers with
  | Some v -> (
    match String.lowercase_ascii v with
    | "close" -> true
    | "keep-alive" -> false
    | _ -> req.version = "HTTP/1.0")
  | None -> req.version = "HTTP/1.0"

let status_line status =
  "HTTP/1.1 " ^ string_of_int status ^ " " ^ status_reason status

let ok_line = status_line 200

let response ?(status = 200) ?(content_type = "application/json") ?(close = false)
    body =
  String.concat ""
    [ (if status = 200 then ok_line else status_line status);
      "\r\nContent-Type: ";
      content_type;
      "\r\nContent-Length: ";
      string_of_int (String.length body);
      (if close then "\r\nConnection: close\r\n\r\n" else "\r\n\r\n");
      body;
    ]
