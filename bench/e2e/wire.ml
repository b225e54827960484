(* The load generator's own HTTP/1.1 client: one keep-alive connection,
   requests rendered once up front, responses read by Content-Length.
   It shares no code with the server, so a change to the server's HTTP
   layer moves the measured numbers and not the instrument. *)

exception Transport of string

let transport fmt = Printf.ksprintf (fun s -> raise (Transport s)) fmt

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;  (** next unread byte *)
  mutable len : int;  (** end of the buffered bytes *)
}

let render ?(close = false) ~meth ~target body =
  Printf.sprintf
    "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: %d\r\n%s\r\n%s"
    meth target (String.length body)
    (if close then "Connection: close\r\n" else "")
    body

let connect ?(timeout_s = 60.) port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s;
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  with
  | () -> { fd; buf = Bytes.create 65536; pos = 0; len = 0 }
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      transport "connect: %s" (Unix.error_message e)

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off
    | exception Unix.Unix_error (e, _, _) ->
        transport "write: %s" (Unix.error_message e)

(* Pull more bytes, keeping the unread tail at the front. *)
let fill c =
  if c.pos > 0 then begin
    Bytes.blit c.buf c.pos c.buf 0 (c.len - c.pos);
    c.len <- c.len - c.pos;
    c.pos <- 0
  end;
  if c.len = Bytes.length c.buf then transport "response header too large";
  let rec go () =
    match Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) with
    | 0 -> transport "connection closed by the server"
    | n -> c.len <- c.len + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        transport "timed out"
    | exception Unix.Unix_error (e, _, _) ->
        transport "read: %s" (Unix.error_message e)
  in
  go ()

let rec read_line c =
  match Bytes.index_from_opt c.buf c.pos '\n' with
  | Some i when i < c.len ->
      let stop = if i > c.pos && Bytes.get c.buf (i - 1) = '\r' then i - 1 else i in
      let line = Bytes.sub_string c.buf c.pos (stop - c.pos) in
      c.pos <- i + 1;
      line
  | _ ->
      fill c;
      read_line c

let read_body c n =
  let body = Bytes.create n in
  let have = min n (c.len - c.pos) in
  Bytes.blit c.buf c.pos body 0 have;
  c.pos <- c.pos + have;
  let rec go off =
    if off < n then
      match Unix.read c.fd body off (n - off) with
      | 0 -> transport "connection closed mid-body"
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          transport "timed out"
      | exception Unix.Unix_error (e, _, _) ->
          transport "read: %s" (Unix.error_message e)
  in
  go have;
  Bytes.unsafe_to_string body

(* Send one rendered request and read its response: status and body. *)
let roundtrip c raw =
  write_all c.fd raw 0;
  let status =
    match String.split_on_char ' ' (read_line c) with
    | _ :: code :: _ -> (
        match int_of_string_opt code with
        | Some s -> s
        | None -> transport "bad status line")
    | _ -> transport "bad status line"
  in
  let rec headers length =
    match read_line c with
    | "" -> length
    | line -> (
        match String.index_opt line ':' with
        | Some i
          when String.lowercase_ascii (String.sub line 0 i) = "content-length"
          ->
            headers
              (int_of_string_opt
                 (String.trim (String.sub line (i + 1) (String.length line - i - 1))))
        | _ -> headers length)
  in
  match headers None with
  | Some n -> (status, read_body c n)
  | None -> transport "response without Content-Length"

(* A one-shot request on its own connection. *)
let request ?timeout_s port ~meth ~target body =
  let c = connect ?timeout_s port in
  Fun.protect
    ~finally:(fun () -> close c)
    (fun () -> roundtrip c (render ~close:true ~meth ~target body))

(* Prometheus text exposition: every sample line except histogram
   buckets, as name -> value. *)
let parse_prometheus text =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | Some i ->
            let name = String.sub line 0 i in
            if not (String.contains name '{') then
              Option.iter (Hashtbl.replace tbl name)
                (float_of_string_opt
                   (String.sub line (i + 1) (String.length line - i - 1)))
        | None -> ())
    (String.split_on_char '\n' text);
  tbl
