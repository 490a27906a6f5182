(* Domain-safe metrics: sharded counters and log-linear latency
   histograms with a lock-free [Atomic] hot path, merged at scrape
   time into a Prometheus text-format exposition.

   Design notes.

   Sharding: each counter / histogram owns [shards] independent cells
   (arrays of [int Atomic.t]).  A writer picks the shard indexed by its
   domain id modulo [shards], so concurrent domains almost never
   contend on a cache line, and every update is a single
   [Atomic.fetch_and_add] — no mutex anywhere on the hot path.  A
   scrape folds the shards with pointwise addition; addition over
   naturals is associative and commutative and drops nothing, so the
   merge is loss-free regardless of the order shards are visited or of
   concurrent updates racing the scrape (a racing increment lands in
   either this scrape or the next — totals are monotone).

   Disabled path: a registry created with [~enabled:false] stamps every
   instrument it mints, and each operation early-returns after one
   immutable bool load.  This is the PR 5 null-sink discipline: the
   instrumented binary with telemetry off must cost noise.

   Histograms are log-linear (HdrHistogram-style): 8 linear
   sub-buckets per power of two, which bounds the relative error of
   any reconstructed quantile at 12.5% while keeping the bucket count
   small enough to scan at scrape time.  Values are non-negative
   integers (we feed microseconds); negatives land in a dedicated
   underflow bucket and values at or above 2^30 in an overflow bucket,
   so no observation is ever dropped and [_count] always equals the
   bucket sum. *)

let shards = 16 (* power of two; cheap mask instead of mod *)

let shard_index () = (Domain.self () :> int) land (shards - 1)

(* ------------------------------------------------------------------ *)
(* Log-linear bucket arithmetic (pure; exposed for tests)             *)
(* ------------------------------------------------------------------ *)

module Buckets = struct
  let sub_bits = 3
  let sub = 1 lsl sub_bits (* 8 linear sub-buckets per octave *)

  let max_exp = 30 (* values >= 2^30 overflow (~18 min in us) *)

  (* layout: [0] underflow, [1 .. sub] the values 0..sub-1 one per
     bucket, then (max_exp - sub_bits) octaves of [sub] buckets each,
     and a final overflow bucket. *)
  let count = 1 + sub + ((max_exp - sub_bits) * sub) + 1
  let underflow = 0
  let overflow = count - 1

  let msb v =
    (* index of the highest set bit; v > 0 *)
    let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
    go v 0

  let index v =
    if v < 0 then underflow
    else if v < sub then 1 + v
    else
      let e = msb v in
      if e >= max_exp then overflow
      else
        let s = (v lsr (e - sub_bits)) - sub in
        1 + sub + ((e - sub_bits) * sub) + s

  (* inclusive upper edge of bucket [i]; integers, so the Prometheus
     [le] boundary is exact.  Underflow reports -1 ("anything <= -1"),
     overflow reports max_int and renders as +Inf. *)
  let upper i =
    if i = underflow then -1
    else if i <= sub then i - 1
    else if i >= overflow then max_int
    else
      let j = i - 1 - sub in
      let d = j / sub and s = j mod sub in
      let w = 1 lsl d in
      (sub lsl d) + ((s + 1) * w) - 1

  (* pointwise sum — THE merge.  Associative, commutative, loss-free:
     each cell of the result is the natural sum of the operands'
     cells. *)
  let merge a b = Array.init (Array.length a) (fun i -> a.(i) + b.(i))
end

(* ------------------------------------------------------------------ *)
(* Instruments                                                        *)
(* ------------------------------------------------------------------ *)

type counter = { c_on : bool; cells : int Atomic.t array }

type histogram = {
  h_on : bool;
  (* shards x buckets of observation counts, plus a per-shard running
     sum of raw observed values for the Prometheus [_sum] series. *)
  hcells : int Atomic.t array array;
  hsums : int Atomic.t array;
}

let make_cells n = Array.init n (fun _ -> Atomic.make 0)

let counter_make ~on = { c_on = on; cells = make_cells shards }

let inc ?(n = 1) c =
  if c.c_on then ignore (Atomic.fetch_and_add c.cells.(shard_index ()) n)

let counter_value c =
  Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c.cells

let hist_make ~on =
  {
    h_on = on;
    hcells = Array.init shards (fun _ -> make_cells Buckets.count);
    hsums = make_cells shards;
  }

let observe h v =
  if h.h_on then begin
    let s = shard_index () in
    ignore (Atomic.fetch_and_add h.hcells.(s).(Buckets.index v) 1);
    ignore (Atomic.fetch_and_add h.hsums.(s) v)
  end

(* merged per-bucket counts: one [Atomic.get] per cell, shards folded
   with [Buckets.merge]; no locks *)
let hist_buckets h =
  Array.fold_left
    (fun acc shard -> Buckets.merge acc (Array.map Atomic.get shard))
    (Array.make Buckets.count 0) h.hcells

let hist_sum h = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 h.hsums

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)
(* ------------------------------------------------------------------ *)

type sample = S_counter of counter | S_counter_fn of (unit -> int) | S_gauge_fn of (unit -> int) | S_hist of histogram

type series = { labels : (string * string) list; inst : sample }

type family = {
  name : string;
  help : string;
  ftype : string; (* "counter" | "gauge" | "histogram" *)
  mutable rows : series list; (* reverse registration order *)
}

type registry = {
  enabled : bool;
  m : Mutex.t; (* guards registration only, never the hot path *)
  mutable families : family list; (* reverse registration order *)
}

let create ?(enabled = true) () =
  { enabled; m = Mutex.create (); families = [] }

let enabled r = r.enabled

let family r ~name ~help ~ftype =
  Mutex.protect r.m (fun () ->
      match List.find_opt (fun f -> f.name = name) r.families with
      | Some f -> f
      | None ->
        let f = { name; help; ftype; rows = [] } in
        r.families <- f :: r.families;
        f)

let register r ~name ~help ~ftype ?(labels = []) inst =
  let f = family r ~name ~help ~ftype in
  Mutex.protect r.m (fun () -> f.rows <- { labels; inst } :: f.rows)

let counter r ~name ~help ?labels () =
  let c = counter_make ~on:r.enabled in
  register r ~name ~help ~ftype:"counter" ?labels (S_counter c);
  c

let counter_fn r ~name ~help ?labels f =
  register r ~name ~help ~ftype:"counter" ?labels (S_counter_fn f)

let gauge_fn r ~name ~help ?labels f =
  register r ~name ~help ~ftype:"gauge" ?labels (S_gauge_fn f)

let histogram r ~name ~help ?labels () =
  let h = hist_make ~on:r.enabled in
  register r ~name ~help ~ftype:"histogram" ?labels (S_hist h);
  h

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition (format 0.0.4)                          *)
(* ------------------------------------------------------------------ *)

let escape_label v =
  let b = Buffer.create (String.length v + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let render_labels = function
  | [] -> ""
  | labels ->
    let body =
      String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v)) labels)
    in
    "{" ^ body ^ "}"

let add_sample buf name labels v =
  Buffer.add_string buf name;
  Buffer.add_string buf (render_labels labels);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_int v);
  Buffer.add_char buf '\n'

let render_histogram buf name labels h =
  (* cumulative [le] buckets.  Empty buckets are skipped (a sparse
     [le] set is valid Prometheus); [+Inf] always appears and equals
     [_count]. *)
  let b = hist_buckets h in
  let cum = ref 0 in
  Array.iteri
    (fun i n ->
      if n > 0 && i <> Buckets.overflow then begin
        cum := !cum + n;
        let le = string_of_int (Buckets.upper i) in
        add_sample buf (name ^ "_bucket") (labels @ [ ("le", le) ]) !cum
      end)
    b;
  let total = !cum + b.(Buckets.overflow) in
  add_sample buf (name ^ "_bucket") (labels @ [ ("le", "+Inf") ]) total;
  add_sample buf (name ^ "_sum") labels (hist_sum h);
  add_sample buf (name ^ "_count") labels total

let exposition r =
  let buf = Buffer.create 4096 in
  List.iter
    (fun f ->
      Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" f.name f.help);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" f.name f.ftype);
      List.iter
        (fun s ->
          match s.inst with
          | S_counter c -> add_sample buf f.name s.labels (counter_value c)
          | S_counter_fn fn | S_gauge_fn fn -> add_sample buf f.name s.labels (fn ())
          | S_hist h -> render_histogram buf f.name s.labels h)
        (List.rev f.rows))
    (List.rev r.families);
  Buffer.contents buf
