type t = {
  mutable data : int array;
  mutable len : int;
}

let create ?(capacity = 8) () = { data = Array.make (max 1 capacity) 0; len = 0 }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Intvec.get";
  Array.unsafe_get t.data i

let push t x =
  if t.len = Array.length t.data then begin
    let grown = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 grown 0 t.len;
    t.data <- grown
  end;
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let iter f t =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.data i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc (Array.unsafe_get t.data i)
  done;
  !acc

let exists p t =
  let rec go i = i < t.len && (p (Array.unsafe_get t.data i) || go (i + 1)) in
  go 0

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (Array.unsafe_get t.data i :: acc) in
  go (t.len - 1) []
