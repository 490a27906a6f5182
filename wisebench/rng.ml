(* The benchmark's only source of randomness: splitmix64 streams derived
   from the --seed argument. Independent of the stdlib Random state, so
   nothing else in the process can perturb a workload. *)

type t = { mutable s : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* [make seed stream] — one independent generator per (seed, stream) *)
let make seed stream =
  { s = mix (Int64.add (Int64.of_int seed) (Int64.mul (Int64.of_int (stream + 1)) golden_gamma)) }

let next t =
  t.s <- Int64.add t.s golden_gamma;
  mix t.s

(* uniform in [0, bound) *)
let int t bound = Int64.to_int (Int64.shift_right_logical (next t) 2) mod bound

(* uniform in [0, 1) *)
let float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Zipf(s) over ranks 0 .. n-1 (rank 0 most popular): returns a sampler
   drawing from [t] by binary search over the cumulative weights. *)
let zipf ~s n =
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) s);
    cum.(i) <- !acc
  done;
  let total = !acc in
  fun t ->
    let x = float t *. total in
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if x < cum.(mid) then go lo mid else go (mid + 1) hi
    in
    go 0 (n - 1)
