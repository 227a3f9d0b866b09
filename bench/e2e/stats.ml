(* Order statistics: latency percentiles within a run, and the
   run-to-run quartiles the repeatability check compares with each
   metric's bound. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least a [q] share of the
   samples at or below it, so a reported latency is one that was
   observed (Ekg_stats.Descriptive interpolates); nan on an empty
   sample. *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* [(q1, median, q3)] as Python's [statistics.quantiles(xs, n=4)]
   computes them (its default 'exclusive' method), so spreads printed
   here match the ones the benchmark is judged by. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then
    let x = if n = 1 then a.(0) else Float.nan in
    x, x, x
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    q 1, q 2, q 3
