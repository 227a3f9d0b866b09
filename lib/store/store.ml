type t = {
  dir : string;
  mutable obs : Ekg_obs.Metrics.t;
}

let snapshot_bytes_metric =
  Ekg_obs.Metrics.counter ~help:"Cumulative session snapshot bytes written"
    "ekg_store_snapshot_bytes"
let snapshot_seconds_metric =
  Ekg_obs.Metrics.counter ~help:"Seconds spent encoding and durably writing session snapshots"
    "ekg_store_snapshot_seconds"
let restore_seconds_metric =
  Ekg_obs.Metrics.counter ~help:"Seconds spent reading and decoding snapshots on warm restores"
    "ekg_store_restore_seconds"

let suffix = ".snap"

let valid_id id =
  String.length id > 0
  && id.[0] <> '.'
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
         | _ -> false)
       id

let dir t = t.dir
let set_obs t obs =
  List.iter (Ekg_obs.Metrics.declare obs)
    [ snapshot_bytes_metric; snapshot_seconds_metric; restore_seconds_metric ];
  t.obs <- obs
let path t id = Filename.concat t.dir (id ^ suffix)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_dir dir =
  match
    mkdir_p dir;
    Sys.is_directory dir
  with
  | exception Unix.Unix_error (err, _, _) ->
    Error (dir ^ ": " ^ Unix.error_message err)
  | exception Sys_error e -> Error e
  | false -> Error (dir ^ ": not a directory")
  | true ->
    (* sweep torn tmp files from a crash mid-save; their rename never
       happened, so the previous complete snapshot is still in place *)
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".tmp" then
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    Ok { dir; obs = Ekg_obs.Metrics.noop () }

(* fsync the directory so the rename itself is durable; best-effort —
   some filesystems refuse fsync on directories *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd

let save t snap =
  if not (valid_id snap.Codec.id) then
    Error ("invalid session id for a snapshot file: " ^ snap.Codec.id)
  else begin
    let t0 = Ekg_obs.Clock.now_s () in
    let bytes = Codec.encode snap in
    let final = path t snap.Codec.id in
    let tmp =
      Printf.sprintf "%s.%d.tmp" final (Unix.getpid ())
    in
    match
      let fd =
        Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let len = String.length bytes in
          let written = ref 0 in
          while !written < len do
            written :=
              !written
              + Unix.write_substring fd bytes !written (len - !written)
          done;
          Unix.fsync fd);
      Unix.rename tmp final;
      fsync_dir t.dir
    with
    | exception Unix.Unix_error (err, syscall, _) ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Error (Printf.sprintf "%s: %s (%s)" final (Unix.error_message err) syscall)
    | () ->
      Ekg_obs.Metrics.record t.obs
        [
          Add (snapshot_bytes_metric, [], float_of_int (String.length bytes));
          Add (snapshot_seconds_metric, [], Ekg_obs.Clock.now_s () -. t0);
        ];
      Ok (String.length bytes)
  end

let read_file file =
  match open_in_bin file with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | s -> Ok s
        | exception End_of_file -> Error (file ^ ": unreadable"))

let load_with decode t id =
  if not (valid_id id) then Error ("invalid session id: " ^ id)
  else
    match read_file (path t id) with
    | Error _ as e -> e
    | Ok data -> (
      match decode data with
      | Ok _ as ok -> ok
      | Error e -> Error (path t id ^ ": " ^ Codec.error_to_string e))

let load t id =
  let t0 = Ekg_obs.Clock.now_s () in
  match load_with Codec.decode t id with
  | Error _ as e -> e
  | Ok _ as ok ->
    Ekg_obs.Metrics.add t.obs restore_seconds_metric
      (Ekg_obs.Clock.now_s () -. t0);
    ok

let load_meta t id = load_with Codec.decode_meta t id

let delete t id =
  if valid_id id then
    try Sys.remove (path t id) with Sys_error _ -> ()

let scan t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter_map (fun f ->
           if Filename.check_suffix f suffix then begin
             let id = Filename.chop_suffix f suffix in
             if valid_id id then Some id else None
           end
           else None)
    |> List.sort (fun a b ->
           match compare (String.length a) (String.length b) with
           | 0 -> String.compare a b
           | c -> c)
