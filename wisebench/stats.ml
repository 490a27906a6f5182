(* Summary statistics shared by the workloads and the A/B comparison.

   Percentiles use the nearest-rank definition on the sorted samples.
   The tail a run reports is the highest percentile of [ladder] that
   still has at least ten samples beyond it, so a tail is never read off
   a handful of outliers; the sample count is printed next to it. The
   ladder stops at p95: on a shared 2-core container, p99 of a hit
   measures the host's scheduling more than the daemon. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* geometric mean of positive values; non-positive inputs make it nan *)
let geomean xs =
  match xs with
  | [] -> nan
  | _ when List.exists (fun x -> not (x > 0.0)) xs -> nan
  | _ -> exp (mean (List.map log xs))

(* percentiles in tenths of a percent, so ranks are exact integer math *)
let ladder = [ 500; 750; 900; 950 ]

let percentile_name p =
  if p mod 10 = 0 then Printf.sprintf "p%d" (p / 10)
  else Printf.sprintf "p%d.%d" (p / 10) (p mod 10)

(* 0-based nearest-rank index of percentile [p] among [n] samples *)
let rank ~n p = max 0 (((p * n) + 999) / 1000 - 1)

let beyond ~n p = n - 1 - rank ~n p

let tail_percentile n =
  List.fold_left (fun best p -> if beyond ~n p >= 10 then p else best) 500 ladder

(* [percentile a p] on an already sorted array *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan else a.(rank ~n p)

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] (the
   default "exclusive" method), which is how run-to-run spread is
   judged. Needs at least two values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then (nan, nan, nan)
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)
