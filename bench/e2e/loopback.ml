(* The load generator's side of the wire: a minimal HTTP/1.1 client
   (one request per connection — the server answers Connection: close)
   and the lifecycle of the ekg-serve child process it drives.  The
   server runs as its own process so it gets its own runtime and its
   peak RSS can be read from /proc. *)

(* generous: a request that needs longer is a hang, not a slow answer *)
let timeout_s = 60.

let send_all sock data =
  let len = String.length data in
  let rec go off =
    if off < len then go (off + Unix.write_substring sock data off (len - off))
  in
  go 0

let read_all sock =
  let acc = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let n = Unix.read sock chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes acc chunk 0 n;
      go ()
    end
  in
  go ();
  Buffer.contents acc

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

let parse_response raw =
  let fail () = failwith "malformed HTTP response" in
  match String.index_opt raw ' ', find_sub raw "\r\n\r\n" with
  | Some sp, Some eoh when sp + 4 <= String.length raw ->
    let status = Option.value ~default:0 (int_of_string_opt (String.sub raw (sp + 1) 3)) in
    if status = 0 then fail ();
    status, String.sub raw (eoh + 4) (String.length raw - eoh - 4)
  | _ -> fail ()

(* [request ~port meth target body] is [(status, body)]; transport
   failures (refused, reset, timed out) raise *)
let request ~port meth target body =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float sock Unix.SO_RCVTIMEO timeout_s;
      Unix.setsockopt_float sock Unix.SO_SNDTIMEO timeout_s;
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let head =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\
           X-Ekg-Deadline-Ms: %d\r\n%s\r\n"
          meth target
          (int_of_float (timeout_s *. 1000.))
          (if meth = "GET" then ""
           else Printf.sprintf "Content-Length: %d\r\n" (String.length body))
      in
      send_all sock (head ^ body);
      parse_response (read_all sock))

(* --- the child server ---------------------------------------------------------- *)

type server = { pid : int; mutable port : int; out : in_channel; mutable running : bool }

let live : server list ref = ref []

let stop s =
  if s.running then begin
    s.running <- false;
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    (* a graceful drain takes milliseconds; escalate if it hangs *)
    let give_up = Unix.gettimeofday () +. 5. in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ when Unix.gettimeofday () < give_up ->
        Unix.sleepf 0.02;
        reap ()
      | 0, _ ->
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] s.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    reap ();
    close_in_noerr s.out;
    live := List.filter (fun s' -> s'.pid <> s.pid) !live
  end

(* every exit path — normal return, exception, [exit], SIGINT/SIGTERM
   turned into [exit] by the CLI — reaps the child *)
let () = at_exit (fun () -> List.iter stop !live)

(* "ekg-serve: listening on http://127.0.0.1:41234 (2 worker domains, …)" *)
let port_of_banner line =
  match find_sub line "listening on http://" with
  | None -> None
  | Some i ->
    let rest = String.sub line (i + 20) (String.length line - i - 20) in
    let addr = match String.index_opt rest ' ' with Some j -> String.sub rest 0 j | None -> rest in
    Option.bind (String.rindex_opt addr ':') (fun j ->
        int_of_string_opt (String.sub addr (j + 1) (String.length addr - j - 1)))

(* The shape the benchmark fixes for every commit: 2 worker domains on
   the 2-core box, a sequential chase, no store, an ephemeral port. *)
let start ~exe ~root =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let argv =
    [| exe; "--host"; "127.0.0.1"; "--port"; "0"; "--domains"; "2";
       "--chase-domains"; "1"; "--root"; root |]
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w; Unix.close null)
      (fun () -> Unix.create_process exe argv null w Unix.stderr)
  in
  let out = Unix.in_channel_of_descr r in
  let s = { pid; port = 0; out; running = true } in
  live := s :: !live;
  let rec banner () =
    match input_line out with
    | exception End_of_file ->
      stop s;
      failwith (exe ^ " exited before listening")
    | line -> ( match port_of_banner line with Some p -> p | None -> banner ())
  in
  s.port <- banner ();
  s

(* the server's peak resident set (VmHWM), in KiB *)
let peak_rss_kib s =
  let ic = open_in (Printf.sprintf "/proc/%d/status" s.pid) in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      let rec scan () =
        let line = input_line ic in
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        else scan ()
      in
      scan ())
