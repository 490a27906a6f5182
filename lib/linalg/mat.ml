type t = Q.t array array

let of_ints a = Array.map Vec.of_ints a
let copy m = Array.map Array.copy m

let rows m = Array.length m
let cols m = if rows m = 0 then 0 else Array.length m.(0)

(* Reduced row echelon form by exact Gauss-Jordan elimination. *)
let rref m0 =
  let m = copy m0 in
  let r = rows m and c = cols m in
  let pivots = ref [] in
  let prow = ref 0 in
  for j = 0 to c - 1 do
    if !prow < r then begin
      (* find a pivot in column j at or below row !prow *)
      let p = ref (-1) in
      (try
         for i = !prow to r - 1 do
           if not (Q.is_zero m.(i).(j)) then begin p := i; raise Exit end
         done
       with Exit -> ());
      if !p >= 0 then begin
        let tmp = m.(!prow) in
        m.(!prow) <- m.(!p);
        m.(!p) <- tmp;
        let inv_pivot = Q.inv m.(!prow).(j) in
        m.(!prow) <- Vec.scale inv_pivot m.(!prow);
        for i = 0 to r - 1 do
          if i <> !prow && not (Q.is_zero m.(i).(j)) then
            m.(i) <- Vec.sub m.(i) (Vec.scale m.(i).(j) m.(!prow))
        done;
        pivots := j :: !pivots;
        incr prow
      end
    end
  done;
  (m, List.rev !pivots)

let rank m = List.length (snd (rref m))

let nullspace m =
  let c = cols m in
  if c = 0 then []
  else begin
    let red, pivots = rref m in
    let is_pivot = Array.make c false in
    List.iter (fun j -> is_pivot.(j) <- true) pivots;
    let pivot_row = Array.make c (-1) in
    List.iteri (fun i j -> pivot_row.(j) <- i) pivots;
    let free = List.filter (fun j -> not is_pivot.(j)) (List.init c Fun.id) in
    let basis_for f =
      let v = Vec.zero c in
      v.(f) <- Q.one;
      List.iter
        (fun j ->
          let i = pivot_row.(j) in
          v.(j) <- Q.neg red.(i).(f))
        pivots;
      v
    in
    List.map basis_for free
  end

let inverse m =
  let n = rows m in
  if n <> cols m then invalid_arg "Mat.inverse: not square";
  (* augment with identity, reduce, read off the right half *)
  let aug =
    Array.init n (fun i ->
        Array.init (2 * n) (fun j ->
            if j < n then m.(i).(j) else if j - n = i then Q.one else Q.zero))
  in
  let red, pivots = rref aug in
  let left_pivots = List.filter (fun j -> j < n) pivots in
  if List.length left_pivots < n then None
  else Some (Array.init n (fun i -> Array.init n (fun j -> red.(i).(j + n))))

let orthogonal_complement m =
  List.map Vec.normalize_int (nullspace m)
