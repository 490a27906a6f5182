(* Two-phase exact simplex over rationals in dictionary form, with an
   incremental re-solve layer.

   Conversion to standard form (min c.y, A y = rhs, y >= 0, rhs >= 0):
     - every free variable x_i becomes x_i^+ - x_i^- (skipped in
       [nonneg] mode where x >= 0 is implied);
     - every inequality a.x + k >= 0 gains a slack;
     - rows are oriented so rhs >= 0. An inequality with k >= 0 can
       then use its slack as the initial basic variable; only rows with
       k < 0 and equalities get an artificial column, which keeps
       phase 1 small;
     - phase 1 minimizes the sum of artificials.

   Storage: a row holds only the nonbasic columns (basic columns are
   implicit unit vectors), so a tableau is m x (ncols - m + 1) rather
   than m x (ncols + 1). Column indices stay global and every choice
   scans them in index order, so the pivot sequence is the one a dense
   tableau would take.

   Pivoting: Dantzig's largest-coefficient rule by default — far fewer
   pivots in practice — with a degeneracy detector that switches
   permanently to Bland's least-index rule once the objective stalls,
   which restores the termination guarantee. The ratio test compares
   rhs_i/a_i ratios by cross-multiplication instead of exact division
   (no gcd normalization per candidate row). A pivot lists the nonzero
   slots of its scaled row once; the row elimination and the objective
   update touch only those, through the fused native [Q.sub_mul].
   Everything is exact, so no tolerance anywhere.

   Incremental layer: an optimal solve can return a [warm] snapshot of
   its final tableau. [reoptimize] re-solves after (a) adding
   constraints — the snapshot basis is dual-feasible, so the added rows
   are priced into the basis and dual simplex runs back to primal
   feasibility — and/or (b) swapping the objective — the basis is
   primal-feasible, so the new reduced costs are priced out and primal
   phase 2 resumes. Both skip phase 1 entirely; a cold two-phase solve
   is the fallback on basis incompatibility or a dual cycling guard.
   Added rows enter with their slacks basic, so the nonbasic columns
   carry over and the copy is only the snapshot's own rows. *)

open Linalg
open Poly

type pivot_rule = Bland | Dantzig

type result =
  | Infeasible
  | Unbounded
  | Optimal of Q.t * Vec.t
  | Exhausted

(* Chaos hooks (fault injection for the test suite): [exhaust] makes
   every solve report [Exhausted] without pivoting — the
   forced-pivot-exhaustion fault; [warm_fallback] makes [reoptimize]
   skip the warm path and re-solve cold every time — the
   forced-warm-start-fallback fault. Production code never sets them. *)
module Chaos = struct
  let exhaust = ref false
  let warm_fallback = ref false

  let reset () =
    exhaust := false;
    warm_fallback := false
end

(* Internal only: budget exhaustion unwinds the solve in progress and
   is converted to the typed [Exhausted] result at every public entry
   point — it never escapes this module. *)
exception Out_of_budget

let charge budget =
  match budget with
  | None -> ()
  | Some b -> if not (Linalg.Budget.spend_pivot b) then raise Out_of_budget

(* Dictionary form: a row keeps the coefficients of the nonbasic
   columns only, in slots, plus its rhs in the last slot; every basic
   column is the unit vector of its row and is left implicit. Slot [k]
   holds column [nonbasic.(k)], and [slot.(j)] is column [j]'s slot, or
   -1 while [j] is basic. Column indices stay global, so every choice
   below scans columns in index order, as over a full tableau. *)
type tableau = {
  a : Q.t array array; (* m rows, each of length nnb + 1 (rhs last) *)
  basis : int array; (* basic column of each row *)
  nonbasic : int array; (* the nnb = ncols - m nonbasic columns, by slot *)
  slot : int array; (* length ncols *)
  nz : int array; (* scratch: the pivot row's nonzero slots *)
  ncols : int; (* structural + slack + artificial columns, excluding rhs *)
  nstruct : int; (* structural (split) + slack columns *)
}

(* A resumable snapshot of an optimal solve: the final tableau and
   reduced-cost row, plus enough of the problem statement to rebuild a
   cold solve on fallback. *)
type warm = {
  w_t : tableau;
  w_obj_row : Q.t array; (* reduced costs by slot, rhs last *)
  w_allowed : bool array; (* length ncols: may the column enter phase 2 *)
  w_nonneg : bool;
  w_n : int; (* original variable count *)
  w_obj_aff : Vec.t; (* the affine objective [w_obj_row] prices *)
  w_poly : Polyhedron.t; (* the solved polyhedron (for cold fallback) *)
  w_rule : pivot_rule;
}

let rhs_slot t = Array.length t.nonbasic

(* Counters count the arithmetic of the full tableau, unit columns
   included: a pivot also scales the entering coefficient to 1
   (p * 1/p) and eliminates it to 0 (f - f*1) in every other row and in
   the objective. On native operands those operations touch no counter;
   off the native path (a Big or min_int operand, or chaos) they promote
   and demote, so they are replayed there, and the counts that serve
   payloads embed do not depend on the storage form. *)
let native q = Bigint.unbox (Q.num q) <> min_int && Bigint.unbox (Q.den q) <> min_int
let replay_zeroing f = if not (native f) then ignore (Q.sub f (Q.mul f Q.one))

(* Pivot on (row, slot k): the column in slot [k] enters the basis and
   the row's basic column leaves into slot [k]. The leaving column is
   the unit vector of [row] — 1 there, 0 elsewhere — and then takes the
   same updates as every other slot. Returns the number of nonzero slots
   of the scaled pivot row, listed in [t.nz]; the elimination here and
   each caller's objective update iterate only those. Counter-free so
   the warm path can charge its pivots to [Counters.dual_pivots]. *)
let pivot_raw t row k =
  let arow = t.a.(row) in
  let p = arow.(k) in
  assert (not (Q.is_zero p));
  arow.(k) <- Q.one;
  let cnt = ref 0 in
  let scale = not (Q.equal p Q.one) in
  let inv = if scale then Q.inv p else Q.one in
  if scale && not (native p) then ignore (Q.mul p inv);
  for j = 0 to Array.length arow - 1 do
    if not (Q.is_zero arow.(j)) then begin
      if scale then arow.(j) <- Q.mul arow.(j) inv;
      t.nz.(!cnt) <- j;
      incr cnt
    end
  done;
  let cnt = !cnt in
  for i = 0 to Array.length t.a - 1 do
    if i <> row then begin
      let irow = t.a.(i) in
      let f = irow.(k) in
      if not (Q.is_zero f) then begin
        replay_zeroing f;
        irow.(k) <- Q.zero;
        for q = 0 to cnt - 1 do
          let j = t.nz.(q) in
          irow.(j) <- Q.sub_mul irow.(j) f arow.(j)
        done
      end
    end
  done;
  let entering = t.nonbasic.(k) and leaving = t.basis.(row) in
  t.basis.(row) <- entering;
  t.slot.(entering) <- -1;
  t.nonbasic.(k) <- leaving;
  t.slot.(leaving) <- k;
  cnt

(* Price the last pivot, on (row, slot k) with [cnt] nonzeros, into the
   objective row: the entering column's reduced cost [f] leaves slot [k]
   to the leaving column's, which is 0 while basic. *)
let price_pivot t obj row k cnt f =
  if not (Q.is_zero f) then begin
    replay_zeroing f;
    obj.(k) <- Q.zero;
    let arow = t.a.(row) in
    for q = 0 to cnt - 1 do
      let j = t.nz.(q) in
      obj.(j) <- Q.sub_mul obj.(j) f arow.(j)
    done
  end

let pivot t row k =
  Linalg.Counters.(incr lp_pivots);
  pivot_raw t row k

(* One simplex phase: minimize obj (reduced costs by slot, with the
   objective value negated in the rhs slot). [allowed col] filters
   columns that may enter. Mutates [t], [obj]. *)
let run_phase ~rule ~budget t obj allowed =
  let m = Array.length t.a in
  let rhs = rhs_slot t in
  let continue_ = ref true in
  let status = ref `Optimal in
  (* Dantzig's rule (most negative reduced cost) is much faster in
     practice; fall back to Bland's rule permanently once the objective
     stagnates for too long (degenerate-cycling guard), which restores
     the termination guarantee. *)
  let use_bland = ref (rule = Bland) in
  let stall = ref 0 in
  let last_value = ref obj.(rhs) in
  while !continue_ do
    if not !use_bland then begin
      if Q.equal obj.(rhs) !last_value then begin
        incr stall;
        if !stall > 40 + m then use_bland := true
      end
      else begin
        stall := 0;
        last_value := obj.(rhs)
      end
    end;
    (* entering: basic columns have reduced cost 0, so only slots compete;
       ties go to the least column index *)
    let entering = ref (-1) in
    if !use_bland then (
      try
        for j = 0 to t.ncols - 1 do
          let k = t.slot.(j) in
          if k >= 0 && allowed j && Q.sign obj.(k) < 0 then begin
            entering := k;
            raise Exit
          end
        done
      with Exit -> ())
    else begin
      let best = ref Q.zero in
      for j = 0 to t.ncols - 1 do
        let k = t.slot.(j) in
        if k >= 0 && allowed j && Q.sign obj.(k) < 0 && Q.compare obj.(k) !best < 0
        then begin
          best := obj.(k);
          entering := k
        end
      done
    end;
    if !entering < 0 then continue_ := false
    else begin
      let k = !entering in
      (* leaving: min ratio rhs/a over rows with a > 0; ties by least
         basis index (Bland). Ratios are compared by cross
         multiplication — rhs_i/a_i < rhs_b/a_b iff rhs_i*a_b <
         rhs_b*a_i for positive coefficients — avoiding one exact
         division (and its gcd normalization) per candidate row. *)
      let best = ref (-1) in
      let best_rhs = ref Q.zero and best_coeff = ref Q.one in
      for i = 0 to m - 1 do
        let aik = t.a.(i).(k) in
        if Q.sign aik > 0 then begin
          let r = t.a.(i).(rhs) in
          if !best < 0 then begin
            best := i;
            best_rhs := r;
            best_coeff := aik
          end
          else begin
            let c = Q.compare (Q.mul r !best_coeff) (Q.mul !best_rhs aik) in
            if c < 0 || (c = 0 && t.basis.(i) < t.basis.(!best)) then begin
              best := i;
              best_rhs := r;
              best_coeff := aik
            end
          end
        end
      done;
      if !best < 0 then begin
        status := `Unbounded;
        continue_ := false
      end
      else begin
        let row = !best in
        let f = obj.(k) in
        charge budget;
        let cnt = pivot t row k in
        price_pivot t obj row k cnt f
      end
    end
  done;
  !status

exception Found_infeasible

(* Read the optimal point and value out of a final tableau. *)
let extract ~nonneg ~n t obj_row obj_aff =
  let rhs = rhs_slot t in
  let y = Array.make t.ncols Q.zero in
  for i = 0 to Array.length t.a - 1 do
    y.(t.basis.(i)) <- t.a.(i).(rhs)
  done;
  let x =
    if nonneg then Array.init n (fun v -> y.(v))
    else Array.init n (fun v -> Q.sub y.(2 * v) y.((2 * v) + 1))
  in
  let value = Q.add (Q.neg obj_row.(rhs)) obj_aff.(n) in
  Optimal (value, x)

(* Build the phase-2 reduced-cost row for [obj_aff] against the current
   basis of [t]: map the affine objective onto the structural columns,
   then price out every basic column, row by row. *)
let priced_obj_row ~nonneg ~n t obj_aff =
  let cost = Array.make t.ncols Q.zero in
  for v = 0 to n - 1 do
    if nonneg then cost.(v) <- obj_aff.(v)
    else begin
      cost.(2 * v) <- obj_aff.(v);
      cost.((2 * v) + 1) <- Q.neg obj_aff.(v)
    end
  done;
  let obj = Array.make (rhs_slot t + 1) Q.zero in
  Array.iteri (fun k col -> obj.(k) <- cost.(col)) t.nonbasic;
  Array.iteri
    (fun i arow ->
      let f = cost.(t.basis.(i)) in
      if not (Q.is_zero f) then begin
        replay_zeroing f;
        Array.iteri
          (fun j aij -> if not (Q.is_zero aij) then obj.(j) <- Q.sub_mul obj.(j) f aij)
          arow
      end)
    t.a;
  obj

let solve_cold_exn ~rule ~nonneg ~budget p obj_aff =
  let n = Polyhedron.dim p in
  if Vec.dim obj_aff <> n + 1 then invalid_arg "Lp.minimize: objective length";
  let cons = Polyhedron.constraints p in
  let m = List.length cons in
  let n_split = if nonneg then n else 2 * n in
  let n_slack = List.length (List.filter (fun c -> Constr.kind c = Constr.Ge) cons) in
  (* artificials: equalities and inequalities with negative constant *)
  let needs_artificial c =
    match Constr.kind c with
    | Constr.Eq -> true
    | Constr.Ge -> Q.sign (Constr.const c) < 0
  in
  let n_art = List.length (List.filter needs_artificial cons) in
  let nstruct = n_split + n_slack in
  let ncols = nstruct + n_art in
  (* every row starts with its artificial or its slack basic, so the
     nonbasic columns are the split structurals and the slacks of rows
     that needed an artificial *)
  let nnb = ncols - m in
  let nonbasic = Array.make nnb 0 and slot = Array.make ncols (-1) in
  let next = ref 0 in
  let make_nonbasic col =
    nonbasic.(!next) <- col;
    slot.(col) <- !next;
    incr next
  in
  for col = 0 to n_split - 1 do
    make_nonbasic col
  done;
  let basis = Array.make m (-1) in
  let slack_idx = ref 0 and art_idx = ref 0 in
  let a =
    Array.of_list
      (List.mapi
         (fun i c ->
           let row = Array.make (nnb + 1) Q.zero in
           let k = Constr.const c in
           (* encode a.x + k >= 0 (or = 0) as a.x (- s) = -k *)
           for v = 0 to n - 1 do
             let cv = Constr.coeff c v in
             if nonneg then row.(v) <- cv
             else begin
               row.(2 * v) <- cv;
               row.((2 * v) + 1) <- Q.neg cv
             end
           done;
           let art = needs_artificial c in
           (match Constr.kind c with
           | Constr.Ge ->
             let col = n_split + !slack_idx in
             incr slack_idx;
             if art then begin
               make_nonbasic col;
               row.(slot.(col)) <- Q.minus_one
             end
             else basis.(i) <- col
           | Constr.Eq -> ());
           if art then begin
             basis.(i) <- nstruct + !art_idx;
             incr art_idx
           end;
           (* orient the row so rhs >= 0. A basic slack (k >= 0) starts
              at -1 and must end at +1: one negation, which k > 0 needs
              for its rhs anyway and k = 0 leaves at rhs 0 *)
           row.(nnb) <- Q.neg k;
           if (not art) || Q.sign row.(nnb) < 0 then
             Array.iteri (fun j x -> row.(j) <- Q.neg x) row;
           row)
         cons)
  in
  let t = { a; basis; nonbasic; slot; nz = Array.make (nnb + 1) 0; ncols; nstruct } in
  let is_artificial col = col >= t.nstruct in
  (* phase 1: minimize the sum of artificials *)
  if n_art > 0 then begin
    let obj1 = Array.make (nnb + 1) Q.zero in
    for i = 0 to m - 1 do
      if is_artificial t.basis.(i) then begin
        (* the artificial's own cost, 1 - 1 *)
        replay_zeroing Q.one;
        let row = t.a.(i) in
        for j = 0 to nnb do
          obj1.(j) <- Q.sub obj1.(j) row.(j)
        done
      end
    done;
    (match run_phase ~rule ~budget t obj1 (fun _ -> true) with
    | `Unbounded -> assert false (* bounded below by 0 *)
    | `Optimal -> ());
    if Q.sign obj1.(nnb) <> 0 then raise Found_infeasible;
    (* drive remaining artificials out of the basis where possible *)
    for i = 0 to m - 1 do
      if is_artificial t.basis.(i) then begin
        let found = ref (-1) in
        (try
           for j = 0 to t.nstruct - 1 do
             let k = t.slot.(j) in
             if k >= 0 && not (Q.is_zero t.a.(i).(k)) then begin
               found := k;
               raise Exit
             end
           done
         with Exit -> ());
        if !found >= 0 then ignore (pivot t i !found)
        (* else: redundant row; the artificial stays basic at value 0 *)
      end
    done
  end;
  (* phase 2 *)
  let obj2 = priced_obj_row ~nonneg ~n t obj_aff in
  let allowed j = j < t.nstruct in
  match run_phase ~rule ~budget t obj2 allowed with
  | `Unbounded -> (Unbounded, None)
  | `Optimal ->
    let res = extract ~nonneg ~n t obj2 obj_aff in
    let w =
      {
        w_t = t;
        w_obj_row = obj2;
        w_allowed = Array.init ncols (fun j -> j < t.nstruct);
        w_nonneg = nonneg;
        w_n = n;
        w_obj_aff = obj_aff;
        w_poly = p;
        w_rule = rule;
      }
    in
    (res, Some w)

let solve_cold ~rule ~nonneg ~budget p obj_aff =
  try solve_cold_exn ~rule ~nonneg ~budget p obj_aff
  with Found_infeasible -> (Infeasible, None)

(* --- warm re-solve ----------------------------------------------------- *)

(* Restore primal feasibility by dual simplex: the reduced costs in
   [obj] are non-negative on allowed columns (dual feasible); repeatedly
   drive the most negative rhs out of the basis. The entering column is
   chosen by the dual ratio test (min obj_j / -a_rj over a_rj < 0, by
   cross multiplication). Bounded by [cap] pivots as a cycling guard. *)
let dual_simplex ~budget t obj allowed cap =
  let m = Array.length t.a in
  let rhs = rhs_slot t in
  let iters = ref 0 in
  let status = ref `Optimal in
  let continue_ = ref true in
  while !continue_ do
    if !iters > cap then begin
      status := `Fallback;
      continue_ := false
    end
    else begin
      let r = ref (-1) in
      let worst = ref Q.zero in
      for i = 0 to m - 1 do
        let ri = t.a.(i).(rhs) in
        if Q.sign ri < 0 then begin
          let c = if !r < 0 then -1 else Q.compare ri !worst in
          if c < 0 || (c = 0 && t.basis.(i) < t.basis.(!r)) then begin
            r := i;
            worst := ri
          end
        end
      done;
      if !r < 0 then continue_ := false (* primal feasible: optimal *)
      else begin
        let row = t.a.(!r) in
        (* entering: ties go to the least column index *)
        let e = ref (-1) in
        let e_obj = ref Q.zero and e_coeff = ref Q.one in
        for j = 0 to t.ncols - 1 do
          let k = t.slot.(j) in
          if k >= 0 && allowed.(j) && Q.sign row.(k) < 0 then begin
            let ok = obj.(k) and ck = Q.neg row.(k) in
            if !e < 0 then begin
              e := k;
              e_obj := ok;
              e_coeff := ck
            end
            else begin
              (* ok/ck < e_obj/e_coeff iff ok*e_coeff < e_obj*ck *)
              let c = Q.compare (Q.mul ok !e_coeff) (Q.mul !e_obj ck) in
              if c < 0 then begin
                e := k;
                e_obj := ok;
                e_coeff := ck
              end
            end
          end
        done;
        if !e < 0 then begin
          (* the row reads: basic = rhs < 0 with only non-negative
             contributions available — infeasible *)
          status := `Infeasible;
          continue_ := false
        end
        else begin
          charge budget;
          Counters.(incr dual_pivots);
          incr iters;
          let f = obj.(!e) in
          let cnt = pivot_raw t !r !e in
          price_pivot t obj !r !e cnt f
        end
      end
    end
  done;
  !status

(* [reoptimize w ~add ~obj] re-solves [w]'s program with the
   constraints [add] appended and objective [obj], starting from [w]'s
   final basis. Two stages: dual simplex absorbs the added rows under
   the old objective (skipping phase 1), then — if the objective
   changed — the new reduced costs are priced out and primal phase 2
   resumes from the feasible basis. Falls back to a cold solve when
   the snapshot is incompatible or the dual iteration cap trips. *)
let reoptimize_exn ?budget w ~add ~obj:obj_aff =
  Counters.(incr lp_solves);
  let n = w.w_n in
  let cold () =
    Counters.(incr warm_fallbacks);
    (* cold fallbacks are rare and worth seeing individually in a trace;
       warm successes are only counted (they would dominate the event
       stream) *)
    if Obs.Trace.on () then
      Obs.Trace.instant ~cat:"ilp" "lp.warm-fallback"
        ~args:[ ("vars", Obs.Json.Int n) ];
    solve_cold ~rule:w.w_rule ~nonneg:w.w_nonneg ~budget
      (Polyhedron.add_list w.w_poly add)
      obj_aff
  in
  if !Chaos.warm_fallback then cold ()
  else if
    Vec.dim obj_aff <> n + 1 || List.exists (fun c -> Constr.dim c <> n) add
  then cold ()
  else begin
    (* every added constraint becomes one or two Ge rows
       (an equality is its two opposite inequalities) *)
    let rows_to_add =
      List.concat_map
        (fun c ->
          match Constr.kind c with
          | Constr.Ge -> [ Constr.coeffs c ]
          | Constr.Eq -> [ Constr.coeffs c; Vec.neg (Constr.coeffs c) ])
        add
    in
    let old = w.w_t in
    let m = Array.length old.a in
    let extra = List.length rows_to_add in
    let ncols = old.ncols + extra in
    let nnb = Array.length old.nonbasic in
    (* the added rows' slacks enter basic, so the nonbasic columns and
       their slots carry over; the rows are copied because the snapshot
       may seed other re-solves *)
    let slot = Array.make ncols (-1) in
    Array.blit old.slot 0 slot 0 old.ncols;
    let a = Array.make (m + extra) [||] in
    for i = 0 to m - 1 do
      a.(i) <- Array.copy old.a.(i)
    done;
    let obj_row = Array.copy w.w_obj_row in
    let basis = Array.make (m + extra) (-1) in
    Array.blit old.basis 0 basis 0 m;
    let allowed = Array.make ncols false in
    Array.blit w.w_allowed 0 allowed 0 old.ncols;
    for j = old.ncols to ncols - 1 do
      allowed.(j) <- true
    done;
    (* append each constraint a.x + k >= 0 as  -a.x + s = k  with its
       slack basic, then substitute the current basis out of the row so
       the tableau stays in canonical form; a negative resulting rhs is
       exactly what dual simplex repairs *)
    let n_split = if w.w_nonneg then n else 2 * n in
    List.iteri
      (fun idx cv ->
        (* the row's coefficient on each structural column *)
        let coeff = Array.make n_split Q.zero in
        for v = 0 to n - 1 do
          let av = cv.(v) in
          if not (Q.is_zero av) then
            if w.w_nonneg then coeff.(v) <- Q.neg av
            else begin
              coeff.(2 * v) <- Q.neg av;
              coeff.((2 * v) + 1) <- av
            end
        done;
        let coeff_of col = if col < n_split then coeff.(col) else Q.zero in
        let r = Array.make (nnb + 1) Q.zero in
        Array.iteri (fun k col -> r.(k) <- coeff_of col) old.nonbasic;
        r.(nnb) <- cv.(n);
        for i = 0 to m - 1 do
          let f = coeff_of basis.(i) in
          if not (Q.is_zero f) then begin
            replay_zeroing f;
            Array.iteri
              (fun j aij -> if not (Q.is_zero aij) then r.(j) <- Q.sub_mul r.(j) f aij)
              a.(i)
          end
        done;
        a.(m + idx) <- r;
        basis.(m + idx) <- old.ncols + idx)
      rows_to_add;
    let t =
      { a; basis; nonbasic = Array.copy old.nonbasic; slot;
        nz = Array.make (nnb + 1) 0; ncols; nstruct = ncols }
    in
    let cap = 200 + (10 * (m + extra)) in
    match dual_simplex ~budget t obj_row allowed cap with
    | `Fallback -> cold ()
    | `Infeasible ->
      Counters.(incr warm_starts);
      (Infeasible, None)
    | `Optimal -> (
      let same_obj = Vec.equal obj_aff w.w_obj_aff in
      let obj_row =
        if same_obj then obj_row
        else priced_obj_row ~nonneg:w.w_nonneg ~n t obj_aff
      in
      let status =
        if same_obj then `Optimal
        else run_phase ~rule:w.w_rule ~budget t obj_row (fun j -> allowed.(j))
      in
      match status with
      | `Unbounded ->
        Counters.(incr warm_starts);
        (Unbounded, None)
      | `Optimal ->
        Counters.(incr warm_starts);
        let res = extract ~nonneg:w.w_nonneg ~n t obj_row obj_aff in
        let w' =
          {
            w with
            w_t = t;
            w_obj_row = obj_row;
            w_allowed = allowed;
            w_obj_aff = obj_aff;
            w_poly = Polyhedron.add_list w.w_poly add;
          }
        in
        (res, Some w'))
  end

let reoptimize ?budget w ~add ~obj =
  if !Chaos.exhaust then (Exhausted, None)
  else
    try reoptimize_exn ?budget w ~add ~obj
    with Out_of_budget -> (Exhausted, None)

let warm_poly w = w.w_poly

(* --- public entry points ------------------------------------------------ *)

let minimize_warm ?(rule = Dantzig) ?(nonneg = false) ?budget p obj_aff =
  Counters.(incr lp_solves);
  if !Chaos.exhaust then (Exhausted, None)
  else
    try solve_cold ~rule ~nonneg ~budget p obj_aff
    with Out_of_budget -> (Exhausted, None)

let minimize ?rule ?nonneg ?budget p obj_aff =
  fst (minimize_warm ?rule ?nonneg ?budget p obj_aff)

let maximize ?rule ?nonneg ?budget p obj_aff =
  match minimize ?rule ?nonneg ?budget p (Vec.neg obj_aff) with
  | Infeasible -> Infeasible
  | Unbounded -> Unbounded
  | Optimal (v, x) -> Optimal (Q.neg v, x)
  | Exhausted -> Exhausted

let feasible_point ?rule ?nonneg ?budget p =
  let n = Polyhedron.dim p in
  match minimize ?rule ?nonneg ?budget p (Vec.zero (n + 1)) with
  | Infeasible -> None
  | Unbounded -> None (* cannot happen with zero objective *)
  | Exhausted -> None (* caller opted into a budget: treat as unknown *)
  | Optimal (_, x) -> Some x
