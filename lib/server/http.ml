type meth = GET | POST | PUT | DELETE | HEAD | OPTIONS | Other of string

let meth_to_string = function
  | GET -> "GET"
  | POST -> "POST"
  | PUT -> "PUT"
  | DELETE -> "DELETE"
  | HEAD -> "HEAD"
  | OPTIONS -> "OPTIONS"
  | Other m -> m

let meth_of_string = function
  | "GET" -> GET
  | "POST" -> POST
  | "PUT" -> PUT
  | "DELETE" -> DELETE
  | "HEAD" -> HEAD
  | "OPTIONS" -> OPTIONS
  | m -> Other m

type request = {
  meth : meth;
  target : string;
  path : string list;
  query : (string * string) list;
  headers : (string * string) list;
  body : string;
}

type error =
  | Bad_request of string
  | Length_required
  | Payload_too_large of int
  | Headers_too_large of int
  | Closed

let error_status = function
  | Bad_request _ -> 400
  | Length_required -> 411
  | Payload_too_large _ -> 413
  | Headers_too_large _ -> 431
  | Closed -> 400

let error_message = function
  | Bad_request m -> m
  | Length_required -> "POST/PUT requests must carry a Content-Length header"
  | Payload_too_large limit -> Printf.sprintf "request body exceeds %d bytes" limit
  | Headers_too_large limit -> Printf.sprintf "request headers exceed %d bytes" limit
  | Closed -> "connection closed before a complete request"

let header req name =
  List.assoc_opt (String.lowercase_ascii name) req.headers

(* --- target decoding ------------------------------------------------------- *)

let percent_decode s =
  let n = String.length s in
  let buf = Buffer.create n in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '%' when !i + 2 < n -> (
      match hex s.[!i + 1], hex s.[!i + 2] with
      | Some h, Some l ->
        Buffer.add_char buf (Char.chr ((h * 16) + l));
        i := !i + 2
      | _ -> Buffer.add_char buf '%')
    | '+' -> Buffer.add_char buf ' '
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let split_target target =
  let path_part, query_part =
    match String.index_opt target '?' with
    | None -> target, ""
    | Some i ->
      ( String.sub target 0 i,
        String.sub target (i + 1) (String.length target - i - 1) )
  in
  let path =
    String.split_on_char '/' path_part
    |> List.filter (fun s -> s <> "")
    |> List.map percent_decode
  in
  let query =
    if query_part = "" then []
    else
      String.split_on_char '&' query_part
      |> List.filter (fun s -> s <> "")
      |> List.map (fun kv ->
             match String.index_opt kv '=' with
             | None -> percent_decode kv, ""
             | Some i ->
               ( percent_decode (String.sub kv 0 i),
                 percent_decode (String.sub kv (i + 1) (String.length kv - i - 1)) ))
  in
  path, query

(* --- request parsing ------------------------------------------------------- *)

let find_header_end s =
  (* offset just past the first CRLFCRLF, if present *)
  let n = String.length s in
  let rec scan i =
    if i + 3 >= n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some (i + 4)
    else scan (i + 1)
  in
  scan 0

let parse_header_block block =
  match String.split_on_char '\n' block with
  | [] -> Error (Bad_request "empty request")
  | request_line :: header_lines ->
    let strip s =
      let s = String.trim s in
      s
    in
    let request_line = strip request_line in
    (match String.split_on_char ' ' request_line with
    | [ meth; target; version ]
      when target <> "" && target.[0] = '/'
           && (version = "HTTP/1.1" || version = "HTTP/1.0") ->
      let headers =
        List.filter_map
          (fun line ->
            let line = strip line in
            if line = "" then None
            else
              match String.index_opt line ':' with
              | None | Some 0 -> None
              | Some i ->
                Some
                  ( String.lowercase_ascii (String.sub line 0 i),
                    strip (String.sub line (i + 1) (String.length line - i - 1)) ))
          header_lines
      in
      let bad_header =
        List.exists
          (fun line ->
            let line = strip line in
            line <> "" && not (String.contains line ':'))
          header_lines
      in
      if bad_header then Error (Bad_request "malformed header line")
      else
        let path, query = split_target target in
        Ok
          {
            meth = meth_of_string meth;
            target;
            path;
            query;
            headers;
            body = "";
          }
    | _ -> Error (Bad_request ("malformed request line: " ^ request_line)))

let parse_prefix ?(max_header_bytes = 16 * 1024) ?(max_body_bytes = 4 * 1024 * 1024)
    ~eof buf =
  let n = Buffer.length buf in
  (* a header block within the limit ends in the first
     [max_header_bytes + 4] bytes, so only those are scanned *)
  let head = Buffer.sub buf 0 (min n (max_header_bytes + 4)) in
  match find_header_end head with
  | None ->
    if n > max_header_bytes then Error (Headers_too_large max_header_bytes)
    else if not eof then Ok None
    else Error (if n = 0 then Closed else Bad_request "truncated request")
  | Some body_off -> (
    match parse_header_block (String.sub head 0 (body_off - 4)) with
    | Error e -> Error e
    | Ok req -> (
      match List.assoc_opt "content-length" req.headers with
      | None -> (
        match req.meth with
        | POST | PUT -> Error Length_required
        | _ -> Ok (Some req))
      | Some v -> (
        match int_of_string_opt (String.trim v) with
        | Some len when len > max_body_bytes -> Error (Payload_too_large max_body_bytes)
        | Some len when len >= 0 ->
          if n - body_off >= len then Ok (Some { req with body = Buffer.sub buf body_off len })
          else if not eof then Ok None
          else Error (Bad_request "truncated body")
        | _ -> Error (Bad_request ("invalid Content-Length: " ^ v)))))

let parse_request_string ?max_header_bytes ?max_body_bytes s =
  let buf = Buffer.create (String.length s) in
  Buffer.add_string buf s;
  (* at end of input the parser answers a request or an error *)
  Result.bind (parse_prefix ?max_header_bytes ?max_body_bytes ~eof:true buf)
    (Option.to_result ~none:Closed)

(* --- responses ------------------------------------------------------------- *)

type response = {
  status : int;
  content_type : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

let response ?(content_type = "application/json") ?(headers = []) status body =
  { status; content_type; resp_headers = headers; resp_body = body }

let status_text = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 204 -> "No Content"
  | 301 -> "Moved Permanently"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 411 -> "Length Required"
  | 413 -> "Payload Too Large"
  | 422 -> "Unprocessable Entity"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | s when s >= 200 && s < 300 -> "OK"
  | s when s >= 300 && s < 400 -> "Redirect"
  | s when s >= 400 && s < 500 -> "Client Error"
  | _ -> "Error"

let response_to_string r =
  let buf = Buffer.create (String.length r.resp_body + 256) in
  Buffer.add_string buf
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" r.status (status_text r.status));
  Buffer.add_string buf (Printf.sprintf "Content-Type: %s\r\n" r.content_type);
  Buffer.add_string buf
    (Printf.sprintf "Content-Length: %d\r\n" (String.length r.resp_body));
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" k v))
    r.resp_headers;
  Buffer.add_string buf "Connection: close\r\n\r\n";
  Buffer.add_string buf r.resp_body;
  Buffer.contents buf
