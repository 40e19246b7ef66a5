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
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let url_decode s =
  let n = String.length s in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '+' -> Buffer.add_char b ' '
    | '%' when !i + 2 < n -> (
      match (hex_val s.[!i + 1], hex_val s.[!i + 2]) with
      | Some hi, Some lo ->
        Buffer.add_char b (Char.chr ((hi * 16) + lo));
        i := !i + 2
      | _ -> Buffer.add_char b '%')
    | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

let parse_params q =
  if q = "" then []
  else
    String.split_on_char '&' q
    |> List.filter_map (fun kv ->
           if kv = "" then None
           else
             match String.index_opt kv '=' with
             | Some i ->
               Some
                 ( url_decode (String.sub kv 0 i),
                   url_decode
                     (String.sub kv (i + 1) (String.length kv - i - 1)) )
             | None -> Some (url_decode kv, ""))

(* index of the first "\r\n\r\n" in s, searched in O(n) *)
let find_head_end s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if
      s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some i
    else go (i + 1)
  in
  go 0

let parse_header_line line =
  match String.index_opt line ':' with
  | None -> None
  | Some i ->
    Some
      ( String.lowercase_ascii (String.trim (String.sub line 0 i)),
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let parse ?(max_head = 16 * 1024) ?(max_body = 64 * 1024) s =
  match find_head_end s with
  | None ->
    if String.length s > max_head then Invalid "header block too large"
    else Incomplete
  | Some head_end -> (
    if head_end > max_head then Invalid "header block too large"
    else
      let head = String.sub s 0 head_end in
      match String.split_on_char '\n' head with
      | [] -> Invalid "empty request"
      | req_line :: header_lines -> (
        let req_line = String.trim req_line in
        match String.split_on_char ' ' req_line with
        | [ meth; target; version ]
          when version = "HTTP/1.1" || version = "HTTP/1.0" -> (
          let headers =
            List.filter_map
              (fun l -> parse_header_line (String.trim l))
              header_lines
          in
          let path, params =
            match String.index_opt target '?' with
            | Some i ->
              ( String.sub target 0 i,
                parse_params
                  (String.sub target (i + 1) (String.length target - i - 1))
              )
            | None -> (target, [])
          in
          let content_length =
            match List.assoc_opt "content-length" headers with
            | None -> Ok 0
            | Some v -> (
              (* RFC 9110 allows 1*DIGIT only; [int_of_string_opt] alone
                 would also take OCaml literals such as 0x2, 0_2 or +2 *)
              let digits = String.trim v in
              match int_of_string_opt digits with
              | Some n when String.for_all (fun c -> c >= '0' && c <= '9') digits
                -> Ok n
              | _ -> Error ("bad content-length: " ^ v))
          in
          match content_length with
          | Error e -> Invalid e
          | Ok len ->
            if len > max_body then Invalid "body too large"
            else
              let body_start = head_end + 4 in
              if String.length s < body_start + len then Incomplete
              else
                Complete
                  ( { meth;
                      path;
                      params;
                      version;
                      headers;
                      body = String.sub s body_start len;
                    },
                    body_start + len ))
        | _ -> Invalid ("bad request line: " ^ req_line)))

let header req name =
  List.assoc_opt (String.lowercase_ascii name) req.headers

let wants_close req =
  match Option.map String.lowercase_ascii (header req "connection") with
  | Some "close" -> true
  | Some "keep-alive" -> false
  | _ -> req.version = "HTTP/1.0"

let response ?(status = 200) ?(content_type = "application/json") ?(close = false)
    body =
  Printf.sprintf
    "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n%s\r\n%s"
    status (status_reason status) content_type (String.length body)
    (if close then "Connection: close\r\n" else "")
    body
