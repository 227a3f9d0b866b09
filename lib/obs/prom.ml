let escape ~quote s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '"' when quote -> Buffer.add_string buf "\\\""
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_label = escape ~quote:true
let escape_help = escape ~quote:false

let number v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let header buf ~name ~typ text =
  Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name (escape_help text));
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name typ)

let sample buf ~name ?(labels = []) v =
  Buffer.add_string buf name;
  (match labels with
  | [] -> ()
  | labels ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, value) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        Buffer.add_string buf (escape_label value);
        Buffer.add_char buf '"')
      labels;
    Buffer.add_char buf '}');
  Buffer.add_char buf ' ';
  Buffer.add_string buf (number v);
  Buffer.add_char buf '\n'
