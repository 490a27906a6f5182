(* Two-phase exact simplex in dictionary form, on two tableaux that
   take the same pivots, with an incremental re-solve layer.

   Conversion to standard form (min c.y, A y = rhs, y >= 0, rhs >= 0):
     - every free variable x_i becomes x_i^+ - x_i^- (skipped in
       [nonneg] mode where x >= 0 is implied);
     - every inequality a.x + k >= 0 gains a slack;
     - rows are oriented so rhs >= 0. An inequality with k >= 0 can
       then use its slack as the initial basic variable; only rows with
       k < 0 and equalities get an artificial column, which keeps
       phase 1 small;
     - phase 1 minimizes the sum of artificials.
   Both tableaux start from that one [layout].

   Storage: a row holds only the nonbasic columns (basic columns are
   implicit unit vectors), so a tableau is m x (ncols - m + 1) rather
   than m x (ncols + 1). Column indices stay global and every choice
   scans them in index order, so the pivot sequence is the one a dense
   tableau would take.

   Pivoting: Dantzig's largest-coefficient rule — far fewer pivots in
   practice — with a degeneracy detector that switches permanently to
   Bland's least-index rule once the objective stalls, which restores
   the termination guarantee. The ratio test compares rhs_i/a_i ratios
   by cross-multiplication instead of exact division. Everything is
   exact, so no tolerance anywhere.

   Two tableaux. A cold solve first runs on the native tableau: row i
   is an [int array] of numerators n_ij over the slot layout, then one
   denominator d_i > 0, so entry j is n_ij / d_i; the objective row
   has the same form. A pivot is a native multiply-subtract over the
   pivot row's nonzeros and one gcd pass per changed row — no [Q.t] is
   allocated and the [int array] stores need no write barrier. Every
   numerator and denominator stays strictly inside +-[bound] (2^30 on
   64-bit), checked once when written, so the products and differences
   of the inner loops cannot overflow. A solve whose numbers leave that
   range, or whose constraints or objective are not integral, restarts
   from scratch on the rational tableau ([Q.t] entries, fused
   [Q.sub_mul] updates), which also runs every warm re-solve.
   Both tableaux make each decision on the same rationals — the native
   one compares numerators over a shared denominator, or cross
   multiplies — so they take the same pivots and return the same point,
   value and pivot counts; the restart resets [lp_pivots] and does not
   bill the budget again for the pivots the native attempt already
   billed. Only the bignum counters can differ: the native tableau
   promotes nothing, where the rational one may promote an
   intermediate product (on the benchmark programs no solve that
   finishes natively promotes on the rational tableau either).

   Incremental layer: an optimal solve can return a [warm] snapshot of
   its final tableau. [reoptimize] re-solves after (a) adding
   constraints — the snapshot basis is dual-feasible, so the added rows
   are priced into the basis and dual simplex runs back to primal
   feasibility — and/or (b) swapping the objective — the basis is
   primal-feasible, so the new reduced costs are priced out and primal
   phase 2 resumes. Both skip phase 1 entirely; a cold two-phase solve
   is the fallback on basis incompatibility or a dual cycling guard.
   Added rows enter with their slacks basic, so the nonbasic columns
   carry over and the copy is only the snapshot's own rows. A native
   solve's snapshot converts to the rational tableau when [reoptimize]
   first forces it, so a caller that drops it converts nothing. *)

open Linalg
open Poly

type result =
  | Infeasible
  | Unbounded
  | Optimal of Q.t * Vec.t
  | Exhausted

(* Internal only: budget exhaustion unwinds the solve in progress and
   is converted to the typed [Exhausted] result at every public entry
   point — it never escapes this module. *)
exception Out_of_budget

(* Every pivot bills [charge ()] to the solve's budget first. *)
let charger budget =
  match budget with
  | None -> ignore
  | Some b -> fun () -> if not (Budget.spend_pivot b) then raise Out_of_budget

(* The column layout of a cold solve: structural columns first (x_v, or
   x_v^+ and x_v^- at 2v and 2v + 1), then one slack per inequality in
   row order, then one artificial per equality and per inequality with
   a negative constant. Every row starts with its artificial or its
   slack basic, so the nonbasic columns are the split structurals and
   the slacks of rows that needed an artificial. *)
type layout = {
  n : int; (* original variable count *)
  nonneg : bool;
  cons : Constr.t array; (* one per row *)
  nnb : int;
  ncols : int;
  nstruct : int;
  n_art : int;
  basis : int array;
  nonbasic : int array;
  slot : int array;
  slack_slot : int array; (* per row: its nonbasic slack's slot, or -1 *)
  negate : bool array; (* per row: flip every sign so that rhs >= 0 *)
}

(* Dictionary form: a row keeps the coefficients of the nonbasic
   columns only, in slots, plus its rhs in the next slot ('a = Q.t), or
   the numerators of those and its denominator last ('a = int); every
   basic column is the unit vector of its row and is left implicit.
   Slot [k] holds column [nonbasic.(k)], and [slot.(j)] is column [j]'s
   slot, or -1 while [j] is basic. Column indices stay global, so every
   choice below scans columns in index order, as over a full tableau. *)
type 'a tableau = {
  a : 'a array array; (* m rows *)
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
type snapshot = {
  w_t : Q.t tableau;
  w_obj_row : Q.t array; (* reduced costs by slot, rhs last *)
  w_allowed : bool array; (* length ncols: may the column enter phase 2 *)
  w_nonneg : bool;
  w_n : int; (* original variable count *)
  w_obj_aff : Vec.t; (* the affine objective [w_obj_row] prices *)
  w_poly : Polyhedron.t; (* the solved polyhedron (for cold fallback) *)
}

(* forced by [reoptimize] on the domain that made it *)
type warm = snapshot Lazy.t

let rhs_slot t = Array.length t.nonbasic

(* The column in slot [k] enters the basis at [row]; the leaving column
   takes slot [k]. *)
let enter t row k =
  let entering = t.nonbasic.(k) and leaving = t.basis.(row) in
  t.basis.(row) <- entering;
  t.slot.(entering) <- -1;
  t.nonbasic.(k) <- leaving;
  t.slot.(leaving) <- k

(* --- standard form ------------------------------------------------------- *)

let layout ~nonneg p =
  let n = Polyhedron.dim p in
  let cons = Array.of_list (Polyhedron.constraints p) in
  let m = Array.length cons in
  let n_split = if nonneg then n else 2 * n in
  let count f = Array.fold_left (fun acc c -> if f c then acc + 1 else acc) 0 cons in
  let n_slack = count (fun c -> Constr.kind c = Constr.Ge) in
  (* artificials: equalities and inequalities with negative constant *)
  let needs_artificial c =
    match Constr.kind c with
    | Constr.Eq -> true
    | Constr.Ge -> Q.sign (Constr.const c) < 0
  in
  let n_art = count needs_artificial in
  let nstruct = n_split + n_slack in
  let ncols = nstruct + n_art in
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
  let slack_slot = Array.make m (-1) and negate = Array.make m false in
  let slack_idx = ref 0 and art_idx = ref 0 in
  Array.iteri
    (fun i c ->
      (* encode a.x + k >= 0 (or = 0) as a.x (- s) = -k *)
      let art = needs_artificial c in
      (match Constr.kind c with
      | Constr.Ge ->
        let col = n_split + !slack_idx in
        incr slack_idx;
        if art then begin
          make_nonbasic col;
          slack_slot.(i) <- slot.(col)
        end
        else basis.(i) <- col
      | Constr.Eq -> ());
      if art then begin
        basis.(i) <- nstruct + !art_idx;
        incr art_idx
      end;
      (* orient the row so rhs = -k >= 0. A basic slack (k >= 0) starts
         at -1 and must end at +1: one negation, which k > 0 needs for
         its rhs anyway and k = 0 leaves at rhs 0 *)
      negate.(i) <- (not art) || Q.sign (Constr.const c) > 0)
    cons;
  { n; nonneg; cons; nnb; ncols; nstruct; n_art; basis; nonbasic; slot; slack_slot;
    negate }

let tableau (lay : layout) a =
  { a; basis = lay.basis; nonbasic = lay.nonbasic; slot = lay.slot;
    nz = Array.make (lay.nnb + 1) 0; ncols = lay.ncols; nstruct = lay.nstruct }

(* Drive the artificials still basic after phase 1 out of the basis,
   each by the least nonbasic structural column with a nonzero in its
   row; a row with none is redundant, and its artificial stays basic at
   value 0. *)
let drive_out_artificials t ~is_zero ~pivot =
  for i = 0 to Array.length t.a - 1 do
    if t.basis.(i) >= t.nstruct then begin
      let row = t.a.(i) in
      let found = ref (-1) in
      (try
         for j = 0 to t.nstruct - 1 do
           let k = t.slot.(j) in
           if k >= 0 && not (is_zero row.(k)) then begin
             found := k;
             raise Exit
           end
         done
       with Exit -> ());
      if !found >= 0 then ignore (pivot t i !found)
    end
  done

(* The optimal point and value, from the value [y] of every column and
   the objective row's rhs [z] (the value negated). *)
let optimum ~nonneg ~n y z obj_aff =
  let x =
    if nonneg then Array.init n (fun v -> y.(v))
    else Array.init n (fun v -> Q.sub y.(2 * v) y.((2 * v) + 1))
  in
  Optimal (Q.add (Q.neg z) obj_aff.(n), x)

let snapshot ~nonneg ~n p obj_aff t obj_row =
  { w_t = t; w_obj_row = obj_row; w_allowed = Array.init t.ncols (fun j -> j < t.nstruct);
    w_nonneg = nonneg; w_n = n; w_obj_aff = obj_aff; w_poly = p }

exception Found_infeasible

(* --- rational tableau ---------------------------------------------------- *)

(* Counters count the arithmetic of the full tableau, unit columns
   included: a pivot also scales the entering coefficient to 1
   (p * 1/p) and eliminates it to 0 (f - f*1) in every other row and in
   the objective. On native operands those operations touch no counter;
   off the native path (a Big or min_int operand, or the big-path test
   hook) they promote and demote, so they are replayed there, and the
   counts that serve payloads embed do not depend on the storage form. *)
let native q = Bigint.unbox (Q.num q) <> min_int && Bigint.unbox (Q.den q) <> min_int
let replay_zeroing f = if not (native f) then ignore (Q.sub f (Q.mul f Q.one))

(* Pivot on (row, slot k): the column in slot [k] enters the basis and
   the row's basic column leaves into slot [k]. The leaving column is
   the unit vector of [row] — 1 there, 0 elsewhere — and then takes the
   same updates as every other slot. Returns the number of nonzero slots
   of the scaled pivot row, listed in [t.nz]; the elimination here and
   each caller's objective update iterate only those, through the fused
   native [Q.sub_mul]. Counter-free so the warm path can charge its
   pivots to [Counters.dual_pivots]. *)
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
  enter t row k;
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
let run_phase ~charge t obj allowed =
  let m = Array.length t.a in
  let rhs = rhs_slot t in
  let continue_ = ref true in
  let status = ref `Optimal in
  (* Dantzig's rule (most negative reduced cost) is much faster in
     practice; fall back to Bland's rule permanently once the objective
     stagnates for too long (degenerate-cycling guard), which restores
     the termination guarantee. The [bland] test hook starts on Bland's
     rule, which no tier-1 program stalls into, so that it stays tested. *)
  let use_bland = ref Chaos.hooks.bland in
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
        charge ();
        let cnt = pivot t row k in
        price_pivot t obj row k cnt f
      end
    end
  done;
  !status

(* Read the optimal point and value out of a final tableau. *)
let extract ~nonneg ~n t obj_row obj_aff =
  let rhs = rhs_slot t in
  let y = Array.make t.ncols Q.zero in
  for i = 0 to Array.length t.a - 1 do
    y.(t.basis.(i)) <- t.a.(i).(rhs)
  done;
  optimum ~nonneg ~n y obj_row.(rhs) obj_aff

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

let rational_rows lay =
  Array.mapi
    (fun i c ->
      let row = Array.make (lay.nnb + 1) Q.zero in
      for v = 0 to lay.n - 1 do
        let cv = Constr.coeff c v in
        if lay.nonneg then row.(v) <- cv
        else begin
          row.(2 * v) <- cv;
          row.((2 * v) + 1) <- Q.neg cv
        end
      done;
      if lay.slack_slot.(i) >= 0 then row.(lay.slack_slot.(i)) <- Q.minus_one;
      row.(lay.nnb) <- Q.neg (Constr.const c);
      if lay.negate.(i) then Array.iteri (fun j x -> row.(j) <- Q.neg x) row;
      row)
    lay.cons

let solve_rational ~nonneg ~charge p obj_aff =
  let lay = layout ~nonneg p in
  let t = tableau lay (rational_rows lay) in
  let n = lay.n and nnb = lay.nnb in
  (* phase 1: minimize the sum of artificials *)
  if lay.n_art > 0 then begin
    let obj1 = Array.make (nnb + 1) Q.zero in
    Array.iteri
      (fun i row ->
        if t.basis.(i) >= t.nstruct then begin
          (* the artificial's own cost, 1 - 1 *)
          replay_zeroing Q.one;
          for j = 0 to nnb do
            obj1.(j) <- Q.sub obj1.(j) row.(j)
          done
        end)
      t.a;
    (match run_phase ~charge t obj1 (fun _ -> true) with
    | `Unbounded -> assert false (* bounded below by 0 *)
    | `Optimal -> ());
    if Q.sign obj1.(nnb) <> 0 then raise Found_infeasible;
    drive_out_artificials t ~is_zero:Q.is_zero ~pivot
  end;
  (* phase 2 *)
  let obj2 = priced_obj_row ~nonneg ~n t obj_aff in
  match run_phase ~charge t obj2 (fun j -> j < t.nstruct) with
  | `Unbounded -> (Unbounded, None)
  | `Optimal ->
    ( extract ~nonneg ~n t obj2 obj_aff,
      Some (Lazy.from_val (snapshot ~nonneg ~n p obj_aff t obj2)) )

(* --- native tableau ------------------------------------------------------ *)

(* A native row is [n_0 .. n_(nnb-1); n_rhs; d]: the numerators over
   the rational row's slots, then the denominator d > 0. Rows are kept
   in lowest terms. Any value written outside +-[bound] raises
   [Out_of_range], which abandons the native attempt; below [bound] a
   product of two values and a difference of two products fit a native
   int. *)
exception Out_of_range

let bound = 1 lsl ((Sys.int_size - 3) / 2)
let fit v = if v >= bound || v <= -bound then raise Out_of_range else v

(* an integer [Q.t] in range as a native int; the native tableau takes
   integer inputs only (every polyhedron the pipeline builds is
   integral), so any other value also leaves it *)
let int_of q = if Q.is_integer q then fit (Bigint.unbox (Q.num q)) else raise Out_of_range

(* of non-negative ints, skipping the division by 1 and the one that
   would only swap the operands *)
let rec gcd a b =
  if b = 0 then a else if b = 1 then 1 else if a < b then gcd b a else gcd b (a mod b)

let q_of num den = if den = 1 then Q.of_int num else Q.div (Q.of_int num) (Q.of_int den)
let entry row j = q_of row.(j) row.(Array.length row - 1)

(* Divide [row] by the gcd of its entries and its denominator. *)
let reduce (row : int array) =
  let last = Array.length row - 1 in
  let g = ref row.(last) and j = ref 0 in
  while !g > 1 && !j < last do
    let x = row.(!j) in
    if x <> 0 then g := gcd !g (abs x);
    incr j
  done;
  let g = !g in
  if g > 1 then
    for j = 0 to last do
      row.(j) <- row.(j) / g
    done

(* List the nonzero slots of [row] (rhs included) in [t.nz]. *)
let list_nz (t : int tableau) (row : int array) =
  let cnt = ref 0 in
  for j = 0 to Array.length row - 2 do
    if row.(j) <> 0 then begin
      t.nz.(!cnt) <- j;
      incr cnt
    end
  done;
  !cnt

(* [target <- target - (f / d_target) * src], where [src] has its
   nonzero slots listed in [t.nz.(0 .. cnt - 1)]: with g = gcd (d_src,
   |f|), p = d_src / g and f' = f / g, the new row is [target * p - f' *
   src] over d_target * p. When p = 1 only [src]'s nonzero slots change.
   Returns p; does not reduce. *)
let combine (t : int tableau) (target : int array) f (src : int array) cnt =
  let last = Array.length target - 1 in
  let ds = src.(last) in
  let g = if ds = 1 then 1 else gcd ds (abs f) in
  let p = ds / g and f = f / g in
  if p = 1 then
    for q = 0 to cnt - 1 do
      let j = t.nz.(q) in
      target.(j) <- fit (target.(j) - (f * src.(j)))
    done
  else begin
    for j = 0 to last - 1 do
      target.(j) <- fit ((target.(j) * p) - (f * src.(j)))
    done;
    target.(last) <- fit (target.(last) * p)
  end;
  p

(* The native [pivot]: the pivot row takes its old denominator in slot
   [k] and [n_rk] as its denominator (its sign moved into the
   numerators); every other row with a nonzero in slot [k] eliminates
   it against the new pivot row. Returns the pivot row's nonzero count,
   listed in [t.nz]. *)
let pivot_native (t : int tableau) row k =
  Counters.(incr lp_pivots);
  let prow = t.a.(row) in
  let last = Array.length prow - 1 in
  let a = prow.(k) in
  prow.(k) <- prow.(last);
  prow.(last) <- abs a;
  if a < 0 then
    for j = 0 to last - 1 do
      prow.(j) <- -prow.(j)
    done;
  reduce prow;
  let cnt = list_nz t prow in
  for i = 0 to Array.length t.a - 1 do
    if i <> row then begin
      let irow = t.a.(i) in
      let f = irow.(k) in
      if f <> 0 then begin
        irow.(k) <- 0;
        ignore (combine t irow f prow cnt);
        reduce irow
      end
    end
  done;
  enter t row k;
  cnt

let price_native t (obj : int array) row k cnt =
  let f = obj.(k) in
  if f <> 0 then begin
    obj.(k) <- 0;
    ignore (combine t obj f t.a.(row) cnt);
    reduce obj
  end

(* [run_phase] on the native tableau, with the columns below [limit]
   allowed to enter. The same decisions on the same rationals: the
   reduced costs share the objective row's denominator, so they compare
   as numerators, and the row denominators cancel from the ratio
   rhs_i/a_ik = n_i,rhs/n_ik. *)
let run_phase_native ~charge (t : int tableau) (obj : int array) limit =
  let m = Array.length t.a in
  let rhs = rhs_slot t in
  let den = rhs + 1 in
  let continue_ = ref true in
  let status = ref `Optimal in
  let use_bland = ref Chaos.hooks.bland in
  let stall = ref 0 in
  let last_num = ref obj.(rhs) and last_den = ref obj.(den) in
  while !continue_ do
    if not !use_bland then begin
      if obj.(rhs) * !last_den = !last_num * obj.(den) then begin
        incr stall;
        if !stall > 40 + m then use_bland := true
      end
      else begin
        stall := 0;
        last_num := obj.(rhs);
        last_den := obj.(den)
      end
    end;
    let entering = ref (-1) in
    if !use_bland then (
      try
        for j = 0 to limit - 1 do
          let k = t.slot.(j) in
          if k >= 0 && obj.(k) < 0 then begin
            entering := k;
            raise Exit
          end
        done
      with Exit -> ())
    else begin
      let best = ref 0 in
      for j = 0 to limit - 1 do
        let k = t.slot.(j) in
        if k >= 0 && obj.(k) < !best then begin
          best := obj.(k);
          entering := k
        end
      done
    end;
    if !entering < 0 then continue_ := false
    else begin
      let k = !entering in
      let best = ref (-1) in
      let best_rhs = ref 0 and best_coeff = ref 1 in
      for i = 0 to m - 1 do
        let row = t.a.(i) in
        let aik = row.(k) in
        if aik > 0 then begin
          let r = row.(rhs) in
          if !best < 0 then begin
            best := i;
            best_rhs := r;
            best_coeff := aik
          end
          else begin
            let x = r * !best_coeff and y = !best_rhs * aik in
            if x < y || (x = y && t.basis.(i) < t.basis.(!best)) then begin
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
        charge ();
        let cnt = pivot_native t !best k in
        price_native t obj !best k cnt
      end
    end
  done;
  !status

(* The rows of [lay], over denominator 1. *)
let native_rows lay =
  Array.mapi
    (fun i c ->
      let s = if lay.negate.(i) then -1 else 1 in
      let row = Array.make (lay.nnb + 2) 0 in
      for v = 0 to lay.n - 1 do
        let x = s * int_of (Constr.coeff c v) in
        if lay.nonneg then row.(v) <- x
        else begin
          row.(2 * v) <- x;
          row.((2 * v) + 1) <- -x
        end
      done;
      if lay.slack_slot.(i) >= 0 then row.(lay.slack_slot.(i)) <- -s;
      row.(lay.nnb) <- -s * int_of (Constr.const c);
      row.(lay.nnb + 1) <- 1;
      row)
    lay.cons

(* The reduced-cost row of the integer column costs [cost] against the
   basis of [t]: the nonbasic costs, less each basic column's cost times
   its row. [bcost] carries the basic costs over the row's current
   denominator, so it scales with the row; the row is reduced once at
   the end. *)
let native_obj (t : int tableau) cost =
  let nnb = rhs_slot t in
  let obj = Array.make (nnb + 2) 0 in
  Array.iteri (fun k col -> obj.(k) <- cost.(col)) t.nonbasic;
  obj.(nnb + 1) <- 1;
  let bcost = Array.map (fun col -> cost.(col)) t.basis in
  let m = Array.length t.a in
  for i = 0 to m - 1 do
    let f = bcost.(i) in
    if f <> 0 then begin
      let src = t.a.(i) in
      let p = combine t obj f src (list_nz t src) in
      if p <> 1 then
        for l = i + 1 to m - 1 do
          bcost.(l) <- fit (bcost.(l) * p)
        done
    end
  done;
  reduce obj;
  obj

let solve_native ~nonneg ~charge p obj_aff =
  let lay = layout ~nonneg p in
  let t = tableau lay (native_rows lay) in
  let n = lay.n and nnb = lay.nnb in
  (* phase 1: minimize the sum of artificials *)
  if lay.n_art > 0 then begin
    let obj1 = native_obj t (Array.init t.ncols (fun col -> Bool.to_int (col >= t.nstruct))) in
    (match run_phase_native ~charge t obj1 t.ncols with
    | `Unbounded -> assert false (* bounded below by 0 *)
    | `Optimal -> ());
    if obj1.(nnb) <> 0 then raise Found_infeasible;
    drive_out_artificials t ~is_zero:(fun x -> x = 0) ~pivot:pivot_native
  end;
  (* phase 2 *)
  let cost = Array.make t.ncols 0 in
  for v = 0 to n - 1 do
    let x = int_of obj_aff.(v) in
    if nonneg then cost.(v) <- x
    else begin
      cost.(2 * v) <- x;
      cost.((2 * v) + 1) <- -x
    end
  done;
  let obj2 = native_obj t cost in
  match run_phase_native ~charge t obj2 t.nstruct with
  | `Unbounded -> (Unbounded, None)
  | `Optimal ->
    let rational () =
      let q_row row = Array.init (Array.length row - 1) (entry row) in
      snapshot ~nonneg ~n p obj_aff { t with a = Array.map q_row t.a } (q_row obj2)
    in
    let rhs = rhs_slot t in
    let y = Array.make t.ncols Q.zero in
    Array.iteri (fun i row -> y.(t.basis.(i)) <- entry row rhs) t.a;
    (optimum ~nonneg ~n y (entry obj2 rhs) obj_aff, Some (Lazy.from_fun rational))

(* --- cold solve ---------------------------------------------------------- *)

(* Native first; a native attempt that leaves the range is rerun from
   scratch on the rational tableau, which takes the same pivots: it
   restarts [lp_pivots] from its value at entry and does not bill the
   budget for the pivots the attempt already billed. The [big_path]
   test hook goes to the rational tableau directly. *)
let solve_cold ~nonneg ~charge p obj_aff =
  if Vec.dim obj_aff <> Polyhedron.dim p + 1 then invalid_arg "Lp.minimize: objective length";
  try
    if Chaos.hooks.big_path then solve_rational ~nonneg ~charge p obj_aff
    else begin
      let pivots = Counters.get Counters.lp_pivots and billed = ref 0 in
      let charge_native () =
        incr billed;
        charge ()
      in
      try solve_native ~nonneg ~charge:charge_native p obj_aff
      with Out_of_range ->
        Counters.set Counters.lp_pivots pivots;
        let charge () = if !billed > 0 then decr billed else charge () in
        solve_rational ~nonneg ~charge p obj_aff
    end
  with Found_infeasible -> (Infeasible, None)

(* --- warm re-solve ----------------------------------------------------- *)

(* Restore primal feasibility by dual simplex: the reduced costs in
   [obj] are non-negative on allowed columns (dual feasible); repeatedly
   drive the most negative rhs out of the basis. The entering column is
   chosen by the dual ratio test (min obj_j / -a_rj over a_rj < 0, by
   cross multiplication). Bounded by [cap] pivots as a cycling guard. *)
let dual_simplex ~charge t obj allowed cap =
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
          charge ();
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
  let w = Lazy.force w in
  let charge = charger budget in
  let n = w.w_n in
  let cold () =
    Counters.(incr warm_fallbacks);
    (* cold fallbacks are rare and worth seeing individually in a trace;
       warm successes are only counted (they would dominate the event
       stream) *)
    if Obs.Trace.on () then
      Obs.Trace.instant ~cat:"ilp" "lp.warm-fallback"
        ~args:[ ("vars", Obs.Json.Int n) ];
    solve_cold ~nonneg:w.w_nonneg ~charge
      (Polyhedron.add_list w.w_poly add)
      obj_aff
  in
  if Chaos.hooks.cold_reoptimize then cold ()
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
    match dual_simplex ~charge t obj_row allowed cap with
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
        else run_phase ~charge t obj_row (fun j -> allowed.(j))
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
        (res, Some (Lazy.from_val w')))
  end

let reoptimize ?budget w ~add ~obj =
  if Chaos.hooks.exhaust then (Exhausted, None)
  else
    try reoptimize_exn ?budget w ~add ~obj
    with Out_of_budget -> (Exhausted, None)

(* --- public entry points ------------------------------------------------ *)

let minimize_warm ?(nonneg = false) ?budget p obj_aff =
  Counters.(incr lp_solves);
  if Chaos.hooks.exhaust then (Exhausted, None)
  else
    try solve_cold ~nonneg ~charge:(charger budget) p obj_aff
    with Out_of_budget -> (Exhausted, None)

let minimize ?nonneg ?budget p obj_aff = fst (minimize_warm ?nonneg ?budget p obj_aff)

let maximize ?nonneg ?budget p obj_aff =
  match minimize ?nonneg ?budget p (Vec.neg obj_aff) with
  | Infeasible -> Infeasible
  | Unbounded -> Unbounded
  | Optimal (v, x) -> Optimal (Q.neg v, x)
  | Exhausted -> Exhausted
