open Ekg_kernel
open Ekg_datalog

type t = {
  id : int;
  pred : string;
  args : Value.t array;
}

let atom f = Atom.make f.pred (Array.fold_right (fun v args -> Term.cst v :: args) f.args [])
let arg f i = f.args.(i)

let to_string f = Atom.to_string (atom f)
let pp fmt f = Format.pp_print_string fmt (to_string f)
