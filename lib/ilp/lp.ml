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

   Two tableaux. Every solve first runs on the native tableau: row i
   is an [int array] of numerators n_ij over the slot layout, then one
   denominator d_i > 0, so entry j is n_ij / d_i; the objective row
   has the same form. A pivot is a native multiply-subtract over the
   pivot row's nonzeros and one gcd pass per changed row — no [Q.t] is
   allocated and the [int array] stores need no write barrier. Every
   numerator and denominator stays strictly inside +-[bound] (2^30 on
   64-bit), checked once when written, so the products and differences
   of the inner loops cannot overflow. A solve whose numbers leave that
   range, or whose constraints or objective are not integral, runs
   again on the rational tableau ([Q.t] entries, fused [Q.sub_mul]
   updates): a cold solve from scratch, a re-solve from its snapshot.
   Both tableaux make each decision on the same rationals — the native
   one compares numerators over a shared denominator, or cross
   multiplies — so they take the same pivots and return the same point,
   value and pivot counts; the rerun resets [lp_pivots] and
   [dual_pivots] to their entry values and does not bill the budget
   again for the pivots the native attempt already billed. Only the
   bignum counters can differ: the native tableau promotes nothing,
   where the rational one may promote an intermediate product (on the
   benchmark programs no solve that finishes natively promotes on the
   rational tableau either).

   Incremental layer: an optimal solve returns a [warm] snapshot of
   its final tableau. [reoptimize] re-solves after (a) adding
   constraints — the snapshot basis is dual-feasible, so the added rows
   are priced into the basis and dual simplex runs back to primal
   feasibility — and/or (b) swapping the objective — the basis is
   primal-feasible, so the new reduced costs are priced out and primal
   phase 2 resumes. Both skip phase 1 entirely; a cold two-phase solve
   is the fallback on basis incompatibility or a dual cycling guard.
   One body ([resolve]) re-solves on either tableau, and a [kernel]
   holds what differs: the row arithmetic and the comparisons. Added
   rows enter with their slacks basic, so the nonbasic columns carry
   over. A re-solve shares its snapshot's rows and copies one only when
   a pivot first writes it ([own_row]), so no row that a snapshot can
   reach is written again: one snapshot seeds any number of re-solves,
   and a native snapshot converts to the rational tableau, when a
   re-solve has to fall back, from the rows as it left them. *)

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
  own : bool array; (* per row: false while the row is a snapshot's *)
}

(* A final tableau with its reduced-cost row (by slot, rhs last). *)
type 'a final = 'a tableau * 'a array

(* A snapshot's tableaux: the native one, unless the solve ran on the
   rational one, and the rational one, which a native snapshot converts
   when a re-solve first forces it — on the domain that made it. *)
type tableaux = { native : int final option; rational : Q.t final Lazy.t }

(* A resumable snapshot of an optimal solve: the final tableaux, plus
   enough of the problem statement to rebuild a cold solve on
   fallback. *)
type snapshot = {
  w_tab : tableaux;
  w_allowed : bool array; (* length ncols: may the column enter phase 2 *)
  w_nonneg : bool;
  w_n : int; (* original variable count *)
  w_obj_aff : Vec.t; (* the affine objective the reduced costs price *)
  w_poly : Polyhedron.t; (* the solved polyhedron (for cold fallback) *)
}

type warm = snapshot

(* What differs between the tableaux where one body drives both: the
   row arithmetic, and the comparisons that make each decision on the
   same rationals. *)
type 'a kernel = {
  sign : 'a -> int;
  neg : 'a -> 'a;
  cross : 'a -> 'a -> 'a -> 'a -> int; (* compares a * b with c * d *)
  rhs_cmp : 'a array -> 'a array -> int; (* compares two rows' rhs values *)
  step : 'a tableau -> 'a array -> int -> int -> unit;
      (* an uncounted pivot on (row, slot), priced into the objective row *)
  phase :
    charge:(unit -> unit) -> 'a tableau -> 'a array -> bool array -> [ `Optimal | `Unbounded ];
  row : nonneg:bool -> n:int -> 'a tableau -> Vec.t -> Q.t -> 'a array; (* [priced_row] *)
  entry : 'a array -> int -> Q.t; (* slot j of a row, as a rational *)
  keep : 'a tableau -> 'a array -> tableaux; (* a final tableau, as a snapshot's *)
}

let rhs_slot t = Array.length t.nonbasic

(* Row [i] of [t], for writing: a row [t] shares with a snapshot is
   copied first, so no row a snapshot can reach is written again. *)
let own_row t i =
  if not t.own.(i) then begin
    t.a.(i) <- Array.copy t.a.(i);
    t.own.(i) <- true
  end;
  t.a.(i)

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
    nz = Array.make (lay.nnb + 1) 0; ncols = lay.ncols; nstruct = lay.nstruct;
    own = Array.make (Array.length a) true }

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

(* The optimal point and value of a final tableau whose slot [j] of a
   row reads [entry row j]. Only the structural columns make the point,
   so only their basic rows are read. *)
let extract entry ~nonneg ~n t obj obj_aff =
  let rhs = rhs_slot t and n_split = if nonneg then n else 2 * n in
  let y = Array.make n_split Q.zero in
  Array.iteri
    (fun i row ->
      let col = t.basis.(i) in
      if col < n_split then y.(col) <- entry row rhs)
    t.a;
  let x =
    if nonneg then y else Array.init n (fun v -> Q.sub y.(2 * v) y.((2 * v) + 1))
  in
  Optimal (Q.add (Q.neg (entry obj rhs)) obj_aff.(n), x)

(* Phase 2 on [t] from the reduced costs [obj] of [obj_aff], over the
   [allowed] columns; an optimum comes with its snapshot, of [p]. *)
let finish k ~charge ~nonneg ~n p obj_aff t obj allowed =
  match k.phase ~charge t obj allowed with
  | `Unbounded -> (Unbounded, None)
  | `Optimal ->
    ( extract k.entry ~nonneg ~n t obj obj_aff,
      Some
        { w_tab = k.keep t obj; w_allowed = allowed; w_nonneg = nonneg; w_n = n;
          w_obj_aff = obj_aff; w_poly = p } )

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
  let arow = own_row t row in
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
      let f = t.a.(i).(k) in
      if not (Q.is_zero f) then begin
        let irow = own_row t i in
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
let price_pivot t obj row k cnt =
  let f = obj.(k) in
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
   objective value negated in the rhs slot). [allowed.(col)] filters
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
          if k >= 0 && allowed.(j) && Q.sign obj.(k) < 0 then begin
            entering := k;
            raise Exit
          end
        done
      with Exit -> ())
    else begin
      let best = ref Q.zero in
      for j = 0 to t.ncols - 1 do
        let k = t.slot.(j) in
        if k >= 0 && allowed.(j) && Q.sign obj.(k) < 0 && Q.compare obj.(k) !best < 0
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
        charge ();
        price_pivot t obj !best k (pivot t !best k)
      end
    end
  done;
  !status

(* The row of structural coefficients [c.(0 .. n-1)] and rhs [k]
   against the current basis of [t]: map [c] onto the structural
   columns, then price out every basic column, row by row. With [k] 0
   it is the reduced-cost row of the objective [c]; with [c] = -a and
   [k] the constant of a.x + k >= 0 it is that row added with its
   slack basic. *)
let priced_row ~nonneg ~n t c k =
  let cost = Array.make t.ncols Q.zero in
  for v = 0 to n - 1 do
    if nonneg then cost.(v) <- c.(v)
    else begin
      cost.(2 * v) <- c.(v);
      cost.((2 * v) + 1) <- Q.neg c.(v)
    end
  done;
  let obj = Array.make (rhs_slot t + 1) Q.zero in
  Array.iteri (fun k col -> obj.(k) <- cost.(col)) t.nonbasic;
  obj.(rhs_slot t) <- k;
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

let rational_kernel =
  { sign = Q.sign; neg = Q.neg;
    cross = (fun a b c d -> Q.compare (Q.mul a b) (Q.mul c d));
    rhs_cmp = (fun a b -> Q.compare a.(Array.length a - 1) b.(Array.length b - 1));
    step = (fun t obj row k -> price_pivot t obj row k (pivot_raw t row k));
    phase = run_phase; row = priced_row; entry = Array.get;
    keep = (fun t obj -> { native = None; rational = Lazy.from_val (t, obj) }) }

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
    (match run_phase ~charge t obj1 (Array.make t.ncols true) with
    | `Unbounded -> assert false (* bounded below by 0 *)
    | `Optimal -> ());
    if Q.sign obj1.(nnb) <> 0 then raise Found_infeasible;
    drive_out_artificials t ~is_zero:Q.is_zero ~pivot
  end;
  finish rational_kernel ~charge ~nonneg ~n p obj_aff t
    (priced_row ~nonneg ~n t obj_aff Q.zero)
    (Array.init t.ncols (fun j -> j < t.nstruct))

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
   listed in [t.nz]. Counter-free, as [pivot_raw]. *)
let pivot_native_raw (t : int tableau) row k =
  let prow = own_row t row in
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
      let f = t.a.(i).(k) in
      if f <> 0 then begin
        let irow = own_row t i in
        irow.(k) <- 0;
        ignore (combine t irow f prow cnt);
        reduce irow
      end
    end
  done;
  enter t row k;
  cnt

let pivot_native t row k =
  Counters.(incr lp_pivots);
  pivot_native_raw t row k

let price_native t (obj : int array) row k cnt =
  let f = obj.(k) in
  if f <> 0 then begin
    obj.(k) <- 0;
    ignore (combine t obj f t.a.(row) cnt);
    reduce obj
  end

(* [run_phase] on the native tableau. The same decisions on the same
   rationals: the reduced costs share the objective row's denominator,
   so they compare as numerators, and the row denominators cancel from
   the ratio rhs_i/a_ik = n_i,rhs/n_ik. *)
let run_phase_native ~charge (t : int tableau) (obj : int array) allowed =
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
        for j = 0 to t.ncols - 1 do
          let k = t.slot.(j) in
          if k >= 0 && allowed.(j) && obj.(k) < 0 then begin
            entering := k;
            raise Exit
          end
        done
      with Exit -> ())
    else begin
      let best = ref 0 in
      for j = 0 to t.ncols - 1 do
        let k = t.slot.(j) in
        if k >= 0 && allowed.(j) && obj.(k) < !best then begin
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
        price_native t obj !best k (pivot_native t !best k)
      end
    end
  done;
  !status

(* The rows of [lay], over denominator 1. *)
let native_rows lay =
  Array.mapi
    (fun i c ->
      let s = if lay.negate.(i) then -1 else 1 in
      let cv = Constr.coeffs c in
      let row = Array.make (lay.nnb + 2) 0 in
      for v = 0 to lay.n - 1 do
        if not (Q.is_zero cv.(v)) then begin
          let x = s * int_of cv.(v) in
          if lay.nonneg then row.(v) <- x
          else begin
            row.(2 * v) <- x;
            row.((2 * v) + 1) <- -x
          end
        end
      done;
      if lay.slack_slot.(i) >= 0 then row.(lay.slack_slot.(i)) <- -s;
      row.(lay.nnb) <- -s * int_of cv.(lay.n);
      row.(lay.nnb + 1) <- 1;
      row)
    lay.cons

(* The reduced-cost row of the integer column costs [cost] against the
   basis of [t], from rhs [k]: the nonbasic costs, less each basic
   column's cost times its row. [bcost] carries the basic costs over
   the row's current denominator, so it scales with the row; the row is
   reduced once at the end. *)
let native_obj ?(k = 0) (t : int tableau) cost =
  let nnb = rhs_slot t in
  let obj = Array.make (nnb + 2) 0 in
  Array.iteri (fun k col -> obj.(k) <- cost.(col)) t.nonbasic;
  obj.(nnb) <- k;
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

(* [priced_row] on the native tableau *)
let native_row ~nonneg ~n (t : int tableau) (c : Vec.t) k =
  let cost = Array.make t.ncols 0 in
  for v = 0 to n - 1 do
    if not (Q.is_zero c.(v)) then begin
      let x = int_of c.(v) in
      if nonneg then cost.(v) <- x
      else begin
        cost.(2 * v) <- x;
        cost.((2 * v) + 1) <- -x
      end
    end
  done;
  native_obj ~k:(int_of k) t cost

let native_kernel =
  { sign = (fun x -> Int.compare x 0); neg = Int.neg;
    cross = (fun a b c d -> Int.compare (a * b) (c * d));
    rhs_cmp =
      (fun a b ->
        let d = Array.length a - 1 in
        Int.compare (a.(d - 1) * b.(d)) (b.(d - 1) * a.(d)));
    step = (fun t obj row k -> price_native t obj row k (pivot_native_raw t row k));
    phase = run_phase_native; row = native_row; entry;
    keep =
      (fun t obj ->
        let q_row row = Array.init (Array.length row - 1) (entry row) in
        { native = Some (t, obj);
          rational = lazy ({ t with a = Array.map q_row t.a }, q_row obj) })
  }

let solve_native ~nonneg ~charge p obj_aff =
  let lay = layout ~nonneg p in
  let t = tableau lay (native_rows lay) in
  let n = lay.n and nnb = lay.nnb in
  (* phase 1: minimize the sum of artificials *)
  if lay.n_art > 0 then begin
    let obj1 = native_obj t (Array.init t.ncols (fun col -> Bool.to_int (col >= t.nstruct))) in
    (match run_phase_native ~charge t obj1 (Array.make t.ncols true) with
    | `Unbounded -> assert false (* bounded below by 0 *)
    | `Optimal -> ());
    if obj1.(nnb) <> 0 then raise Found_infeasible;
    drive_out_artificials t ~is_zero:(fun x -> x = 0) ~pivot:pivot_native
  end;
  finish native_kernel ~charge ~nonneg ~n p obj_aff t (native_row ~nonneg ~n t obj_aff Q.zero)
    (Array.init t.ncols (fun j -> j < t.nstruct))

(* --- cold solve ---------------------------------------------------------- *)

(* [native ~charge] and, if it leaves the range, [rational ~charge]
   from the same entry state, which takes the same pivots: the pivot
   counters restart from their values at entry, and the budget is not
   billed again for the pivots the native attempt already billed. The
   [big_path] test hook goes to [rational] directly. *)
let native_first ~charge native rational =
  if Chaos.hooks.big_path then rational ~charge
  else begin
    let pivots = Counters.get Counters.lp_pivots
    and duals = Counters.get Counters.dual_pivots
    and billed = ref 0 in
    let charge_native () =
      incr billed;
      charge ()
    in
    try native ~charge:charge_native
    with Out_of_range ->
      Counters.set Counters.lp_pivots pivots;
      Counters.set Counters.dual_pivots duals;
      rational ~charge:(fun () -> if !billed > 0 then decr billed else charge ())
  end

(* A cold solve on the rational tableau reruns from scratch. *)
let solve_cold ~nonneg ~charge p obj_aff =
  if Vec.dim obj_aff <> Polyhedron.dim p + 1 then invalid_arg "Lp.minimize: objective length";
  try native_first ~charge (solve_native ~nonneg p obj_aff) (solve_rational ~nonneg p obj_aff)
  with Found_infeasible -> (Infeasible, None)

(* --- warm re-solve ----------------------------------------------------- *)

(* Restore primal feasibility by dual simplex: the reduced costs in
   [obj] are non-negative on allowed columns (dual feasible); repeatedly
   drive the most negative rhs out of the basis, ties to the least basic
   column. The entering column is chosen by the dual ratio test (min
   obj_j / -a_rj over a_rj < 0, by cross multiplication; on the native
   tableau the row's and the objective's denominators cancel). Bounded
   by [cap] pivots as a cycling guard. *)
let dual_simplex k ~charge t obj allowed cap =
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
      for i = 0 to m - 1 do
        if k.sign t.a.(i).(rhs) < 0 then begin
          let c = if !r < 0 then -1 else k.rhs_cmp t.a.(i) t.a.(!r) in
          if c < 0 || (c = 0 && t.basis.(i) < t.basis.(!r)) then r := i
        end
      done;
      if !r < 0 then continue_ := false (* primal feasible: optimal *)
      else begin
        let row = t.a.(!r) in
        (* entering: ties go to the least column index *)
        let e = ref (-1) in
        (* read only once [e] holds a candidate *)
        let e_obj = ref row.(rhs) and e_coeff = ref row.(rhs) in
        for j = 0 to t.ncols - 1 do
          let s = t.slot.(j) in
          if s >= 0 && allowed.(j) && k.sign row.(s) < 0 then begin
            let os = obj.(s) and cs = k.neg row.(s) in
            (* os/cs < e_obj/e_coeff iff os*e_coeff < e_obj*cs *)
            if !e < 0 || k.cross os !e_coeff !e_obj cs < 0 then begin
              e := s;
              e_obj := os;
              e_coeff := cs
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
          k.step t obj !r !e
        end
      end
    end
  done;
  !status

(* Re-solve [w]'s final tableau [t0], with reduced costs [obj0], on
   kernel [k]: append the constraints [add], run dual simplex back to
   primal feasibility under the old objective (skipping phase 1), then
   price out [obj_aff] and resume phase 2 — at once optimal when the
   objective is the same. [`Fallback] when the dual iteration cap
   trips. The new tableau shares [t0]'s rows until a pivot writes
   them. *)
let resolve k ~charge w (t0, obj0) add obj_aff =
  let n = w.w_n and nonneg = w.w_nonneg in
  (* every added constraint becomes one or two Ge rows
     (an equality is its two opposite inequalities) *)
  let rows =
    List.concat_map
      (fun c ->
        match Constr.kind c with
        | Constr.Ge -> [ Constr.coeffs c ]
        | Constr.Eq -> [ Constr.coeffs c; Vec.neg (Constr.coeffs c) ])
      add
  in
  let m = Array.length t0.a and extra = List.length rows in
  let ncols = t0.ncols + extra in
  (* the added rows' slacks enter basic, so the nonbasic columns and
     their slots carry over *)
  let slot = Array.make ncols (-1) in
  Array.blit t0.slot 0 slot 0 t0.ncols;
  let a = Array.make (m + extra) [||] in
  Array.blit t0.a 0 a 0 m;
  let t =
    { a; basis = Array.append t0.basis (Array.init extra (fun i -> t0.ncols + i));
      nonbasic = Array.copy t0.nonbasic; slot; nz = Array.make (rhs_slot t0 + 1) 0; ncols;
      nstruct = ncols; own = Array.init (m + extra) (fun i -> i >= m) }
  in
  (* append each constraint a.x + c >= 0 as -a.x + s = c with its slack
     basic, the current basis substituted out of the row so the tableau
     stays in canonical form; a negative resulting rhs is exactly what
     dual simplex repairs *)
  List.iteri (fun i cv -> a.(m + i) <- k.row ~nonneg ~n t (Vec.neg cv) cv.(n)) rows;
  let allowed = Array.append w.w_allowed (Array.make extra true) in
  let obj = Array.copy obj0 in
  match dual_simplex k ~charge t obj allowed (200 + (10 * (m + extra))) with
  | `Fallback -> `Fallback
  | `Infeasible -> `Solved (Infeasible, None)
  | `Optimal ->
    let obj =
      if Vec.equal obj_aff w.w_obj_aff then obj else k.row ~nonneg ~n t obj_aff Q.zero
    in
    `Solved
      (finish k ~charge ~nonneg ~n (Polyhedron.add_list w.w_poly add) obj_aff t obj allowed)

(* [reoptimize w ~add ~obj] re-solves [w]'s program with the
   constraints [add] appended and objective [obj], starting from [w]'s
   final basis: natively when [w] has a native tableau, on the rational
   one otherwise or when the native attempt leaves the range. Falls
   back to a cold solve when the snapshot is incompatible or the dual
   iteration cap trips. *)
let reoptimize_exn ?budget w ~add ~obj:obj_aff =
  Counters.(incr lp_solves);
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
    let rational ~charge =
      resolve rational_kernel ~charge w (Lazy.force w.w_tab.rational) add obj_aff
    in
    let solved =
      match w.w_tab.native with
      | None -> rational ~charge
      | Some t ->
        native_first ~charge
          (fun ~charge -> resolve native_kernel ~charge w t add obj_aff)
          rational
    in
    match solved with
    | `Fallback -> cold ()
    | `Solved r ->
      Counters.(incr warm_starts);
      r
  end

let reoptimize ?budget w ~add ~obj =
  if Chaos.hooks.exhaust then (Exhausted, None)
  else
    try reoptimize_exn ?budget w ~add ~obj
    with Out_of_budget -> (Exhausted, None)

let is_native w = Option.is_some w.w_tab.native

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
