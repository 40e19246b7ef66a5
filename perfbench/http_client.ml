(* A minimal HTTP/1.1 client side: incremental response framing over a
   byte buffer (status line plus Content-Length, which the daemon
   always sends) and a blocking keep-alive request for closed loops. *)

type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;
}

let reader fd = { fd; buf = Bytes.create 65536; len = 0 }

(* Read what the socket has into the buffer; [false] on end of stream
   or a socket error. Call only when a read will not block. *)
let feed r =
  if r.len = Bytes.length r.buf then begin
    let b = Bytes.create (2 * r.len) in
    Bytes.blit r.buf 0 b 0 r.len;
    r.buf <- b
  end;
  match Unix.read r.fd r.buf r.len (Bytes.length r.buf - r.len) with
  | 0 -> false
  | n ->
    r.len <- r.len + n;
    true
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> true
  | exception Unix.Unix_error _ -> false

let find_head_end b len =
  let rec go i =
    if i + 3 >= len then -1
    else if
      Bytes.unsafe_get b i = '\r'
      && Bytes.unsafe_get b (i + 1) = '\n'
      && Bytes.unsafe_get b (i + 2) = '\r'
      && Bytes.unsafe_get b (i + 3) = '\n'
    then i
    else go (i + 1)
  in
  go 0

let content_length head =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i
        when String.lowercase_ascii (String.trim (String.sub line 0 i))
             = "content-length" ->
        int_of_string_opt
          (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    (String.split_on_char '\n' head)

exception Bad_response of string

(* Take one complete response off the front of the buffer:
   [Some (status, body)], or [None] while it is still incomplete. *)
let take r =
  let he = find_head_end r.buf r.len in
  if he < 0 then None
  else begin
    let head = Bytes.sub_string r.buf 0 he in
    let status =
      match String.split_on_char ' ' head with
      | _ :: code :: _ -> (
        match int_of_string_opt (String.trim code) with
        | Some c -> c
        | None -> raise (Bad_response "bad status line"))
      | _ -> raise (Bad_response "bad status line")
    in
    let cl =
      match content_length head with
      | Some n -> n
      | None -> raise (Bad_response "no content-length")
    in
    let total = he + 4 + cl in
    if r.len < total then None
    else begin
      let body = Bytes.sub_string r.buf (he + 4) cl in
      Bytes.blit r.buf total r.buf 0 (r.len - total);
      r.len <- r.len - total;
      Some (status, body)
    end
  end

let write_all fd s =
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    pos := !pos + Unix.write_substring fd s !pos (n - !pos)
  done

let connect ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  reader fd

let close r = try Unix.close r.fd with Unix.Unix_error _ -> ()

(* One blocking request/response on a keep-alive connection. *)
let request r req =
  write_all r.fd req;
  let rec go () =
    match take r with
    | Some resp -> resp
    | None ->
      if not (feed r) then raise (Bad_response "connection closed");
      go ()
  in
  go ()
