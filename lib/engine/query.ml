open Ekg_datalog

let ask db atom = Database.matching db atom Subst.empty

let holds db atom = ask db atom <> []

let parse_and_ask db s =
  match Parser.parse_atom s with
  | Ok a -> Ok (ask db a)
  | Error e -> Error e
