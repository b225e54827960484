(* The server as a child process, and what Linux reports about it
   through /proc.  Every child spawned here is registered so an exit
   path that skips [stop] still reaps it. *)

type t = { pid : int; port : int }

let live = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  live := List.filter (( <> ) pid) !live

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ ->
      live := List.filter (( <> ) pid) !live;
      true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* SIGTERM for a graceful drain, SIGKILL if it has not exited after
   [grace_s]. *)
let kill ?(grace_s = 10.) pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. grace_s in
  let rec wait () =
    if exited pid then ()
    else if Unix.gettimeofday () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid
    end
    else begin
      Unix.sleepf 0.005;
      wait ()
    end
  in
  wait ()

let () = at_exit (fun () -> List.iter (kill ~grace_s:2.) !live)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Start [exe args... --port-file F] with its output in [log] and wait
   until it has written the port it listens on. *)
let spawn ~exe ~args ~port_file ~log ~timeout_s =
  (try Sys.remove port_file with Sys_error _ -> ());
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_APPEND; O_CLOEXEC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let argv = Array.of_list ((exe :: args) @ [ "--port-file"; port_file ]) in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close devnull)
      (fun () -> Unix.create_process exe argv devnull out out)
  in
  live := pid :: !live;
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait () =
    let port =
      match read_file port_file with
      | s when String.length s > 0 && s.[String.length s - 1] = '\n' ->
          int_of_string_opt (String.trim s)
      | _ | (exception Sys_error _) -> None
    in
    match port with
    | Some port -> { pid; port }
    | None ->
        if exited pid then
          failwith (Printf.sprintf "the server exited during start-up; see %s" log)
        else if Unix.gettimeofday () > deadline then begin
          kill pid;
          failwith "the server did not start listening in time"
        end
        else begin
          Unix.sleepf 0.0005;
          wait ()
        end
  in
  wait ()

let stop t = kill t.pid

(* /proc/<pid>/stat: user + system CPU time of all threads, in clock
   ticks of 1/100 s (USER_HZ on Linux). *)
let ticks_per_s = 100.

let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* the command name may hold spaces; fields resume after its ')' *)
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* fields.(0) is field 3 (state): utime is field 14, stime 15 *)
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. ticks_per_s

(* A numeric field of /proc/<pid>/status, e.g. VmHWM (kB) or Threads. *)
let status_field pid name =
  let prefix = name ^ ":" in
  String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid))
  |> List.find_map (fun line ->
         if String.starts_with ~prefix line then
           let v = String.trim (String.sub line (String.length prefix) (String.length line - String.length prefix)) in
           match String.split_on_char ' ' v with
           | n :: _ -> float_of_string_opt n
           | [] -> None
         else None)
  |> function
  | Some v -> v
  | None -> failwith (Printf.sprintf "/proc/%d/status has no %s" pid name)
