(* Reuse distances via the last-occurrence Fenwick-tree algorithm:
   walk the trace; keep, for every line, the time of its previous
   access; a Fenwick tree marks the times that are currently the *last*
   access of their line. The reuse distance of an access is the number
   of marked times after the line's previous access. *)

type summary = {
  accesses : int;
  cold : int;
  histogram : (int * int) list;
  mean_finite : float;
  within : int -> int;
}

(* minimal Fenwick tree over [1..n] *)
module Fenwick = struct
  type t = { tree : int array }

  let create n = { tree = Array.make (n + 1) 0 }

  let add t i delta =
    let i = ref (i + 1) in
    while !i < Array.length t.tree do
      t.tree.(!i) <- t.tree.(!i) + delta;
      i := !i + (!i land - !i)
    done

  (* sum over [0..i] *)
  let prefix t i =
    let acc = ref 0 in
    let i = ref (i + 1) in
    while !i > 0 do
      acc := !acc + t.tree.(!i);
      i := !i - (!i land - !i)
    done;
    !acc

  let range t lo hi = if hi < lo then 0 else prefix t hi - (if lo = 0 then 0 else prefix t (lo - 1))
end

let of_trace ?(line_bytes = 64) trace =
  let lines = List.map (fun addr -> addr / line_bytes) trace in
  let n = List.length lines in
  let fw = Fenwick.create (max n 1) in
  let last = Hashtbl.create 1024 in
  let distances = ref [] in
  let cold = ref 0 in
  List.iteri
    (fun t line ->
      (match Hashtbl.find_opt last line with
      | None -> incr cold
      | Some t_prev ->
        (* marked times strictly after t_prev = distinct lines since *)
        let d = Fenwick.range fw (t_prev + 1) (t - 1) in
        distances := d :: !distances;
        Fenwick.add fw t_prev (-1));
      Hashtbl.replace last line t;
      Fenwick.add fw t 1)
    lines;
  let distances = !distances in
  let finite = List.length distances in
  let mean_finite =
    if finite = 0 then 0.0
    else float_of_int (List.fold_left ( + ) 0 distances) /. float_of_int finite
  in
  (* power-of-two buckets *)
  let buckets = Hashtbl.create 16 in
  List.iter
    (fun d ->
      let rec bucket b = if d <= b then b else bucket (b * 2) in
      let b = if d = 0 then 0 else bucket 1 in
      Hashtbl.replace buckets b
        (1 + Option.value (Hashtbl.find_opt buckets b) ~default:0))
    distances;
  let histogram =
    List.sort compare (Hashtbl.fold (fun b c acc -> (b, c) :: acc) buckets [])
  in
  let sorted = List.sort compare distances in
  let within c =
    (* finite distances strictly below c *)
    let rec count acc = function
      | d :: rest when d < c -> count (acc + 1) rest
      | _ -> acc
    in
    count 0 sorted
  in
  { accesses = n; cold = !cold; histogram; mean_finite; within }

let capture prog ast ~params =
  let mem = Interp.init_memory prog ~params in
  let acc = ref [] in
  Interp.run ~on_access:(fun _ addr -> acc := addr :: !acc) prog ast mem ~params;
  List.rev !acc
