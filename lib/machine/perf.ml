type config = {
  cores : int;
  l1_bytes : int;
  l1_assoc : int;
  l2_bytes : int;
  l2_assoc : int;
  l3_bytes : int;
  l3_assoc : int;
  line_bytes : int;
  lat_l1 : int;
  lat_l2 : int;
  lat_l3 : int;
  lat_mem : int;
  op_cost : int;
  barrier_cost : int;
  combine_cost : int;
  sequential : bool;
  simd_width : int;
}

let default =
  {
    cores = 8;
    l1_bytes = 4 * 1024;
    l1_assoc = 4;
    l2_bytes = 16 * 1024;
    l2_assoc = 8;
    l3_bytes = 128 * 1024;
    l3_assoc = 16;
    line_bytes = 64;
    lat_l1 = 4;
    lat_l2 = 12;
    lat_l3 = 40;
    lat_mem = 220;
    op_cost = 2;
    barrier_cost = 3000;
    combine_cost = 400;
    sequential = false;
    simd_width = 1;
  }

let with_cores cores cfg = { cfg with cores }

type stats = {
  cycles : int;
  instances : int;
  flops : int;
  accesses : int;
  l1_misses : int;
  l2_misses : int;
  l3_misses : int;
  barriers : int;
}

type core = { l1 : Cache.t; l2 : Cache.t; mutable busy : int }

let simulate ?(config = default) (prog : Scop.Program.t) ast ~params =
  let ncores = if config.sequential then 1 else config.cores in
  let cores =
    Array.init ncores (fun _ ->
        {
          l1 =
            Cache.create ~size_bytes:config.l1_bytes
              ~line_bytes:config.line_bytes ~assoc:config.l1_assoc ();
          l2 =
            Cache.create ~size_bytes:config.l2_bytes
              ~line_bytes:config.line_bytes ~assoc:config.l2_assoc ();
          busy = 0;
        })
  in
  let l3 =
    Cache.create ~size_bytes:config.l3_bytes ~line_bytes:config.line_bytes
      ~assoc:config.l3_assoc ()
  in
  let current = ref 0 in
  let accesses = ref 0 in
  let instances = ref 0 in
  let flops = ref 0 in
  let barriers = ref 0 in
  let op_counts =
    Array.map (fun (s : Scop.Statement.t) -> Scop.Expr.op_count s.rhs) prog.stmts
  in
  let on_access _kind addr =
    incr accesses;
    let core = cores.(!current) in
    let lat =
      if Cache.access core.l1 ~addr then config.lat_l1
      else if Cache.access core.l2 ~addr then config.lat_l2
      else if Cache.access l3 ~addr then config.lat_l3
      else config.lat_mem
    in
    core.busy <- core.busy + lat
  in
  let simd = ref 1 in
  let on_stmt id =
    incr instances;
    let ops = op_counts.(id) in
    flops := !flops + ops;
    let core = cores.(!current) in
    (* vectorized iterations amortize the arithmetic over simd lanes *)
    core.busy <- core.busy + (max 1 (ops * config.op_cost / !simd))
  in
  let mem = Interp.init_memory prog ~params in
  let exec = Interp.instance_runner ~on_access ~on_stmt prog mem ~params in
  let y = Array.make 64 0 in
  let time = ref 0 in
  (* vectorizable: an innermost loop, communication-free, whose
     statements share one bound group and invert without guards *)
  let rec guard_free = function
    | Codegen.Ast.Seq nodes -> List.for_all guard_free nodes
    | Codegen.Ast.Exec inst ->
      inst.Codegen.Ast.det = 1 && Array.length inst.Codegen.Ast.const_rows = 0
    | Codegen.Ast.Loop _ -> false (* not innermost *)
  in
  let vectorizable (l : Codegen.Ast.loop) =
    config.simd_width > 1
    && l.Codegen.Ast.par = Codegen.Ast.Parallel
    && List.length (List.sort_uniq compare l.Codegen.Ast.lb_groups) = 1
    && List.length (List.sort_uniq compare l.Codegen.Ast.ub_groups) = 1
    && guard_free l.Codegen.Ast.body
  in
  (* sequential walk, charging the current core *)
  let rec walk_seq node =
    match node with
    | Codegen.Ast.Seq nodes -> List.iter walk_seq nodes
    | Codegen.Ast.Exec inst -> exec inst ~y
    | Codegen.Ast.Loop l ->
      let outer = Array.sub y 0 l.level in
      let lb, ub = Codegen.Ast.loop_range l ~outer ~params in
      let saved = !simd in
      if vectorizable l then simd := config.simd_width;
      for v = lb to ub do
        y.(l.level) <- v;
        walk_seq l.body
      done;
      simd := saved
  in
  (* top level: sequence of nests; parallelize outermost loops *)
  let rec walk_top node =
    match node with
    | Codegen.Ast.Seq nodes -> List.iter walk_top nodes
    | Codegen.Ast.Exec inst ->
      current := 0;
      let before = cores.(0).busy in
      exec inst ~y;
      time := !time + (cores.(0).busy - before)
    | Codegen.Ast.Loop l ->
      let outer = Array.sub y 0 l.level in
      let lb, ub = Codegen.Ast.loop_range l ~outer ~params in
      let total = ub - lb + 1 in
      if total <= 0 then ()
      else if
        config.sequential || ncores = 1
        || l.par = Codegen.Ast.Sequential
      then begin
        current := 0;
        let before = cores.(0).busy in
        for v = lb to ub do
          y.(l.level) <- v;
          walk_seq l.body
        done;
        time := !time + (cores.(0).busy - before)
      end
      else begin
        (* block partitioning over the model cores; chunk c covers
           [lb + c*total/ncores, lb + (c+1)*total/ncores) *)
        let before = Array.map (fun c -> c.busy) cores in
        for c = 0 to ncores - 1 do
          let from = lb + (c * total / ncores) in
          let upto = lb + ((c + 1) * total / ncores) - 1 in
          current := c;
          for v = from to upto do
            y.(l.level) <- v;
            walk_seq l.body
          done
        done;
        let elapsed = ref 0 in
        Array.iteri
          (fun i c -> elapsed := max !elapsed (c.busy - before.(i)))
          cores;
        let sync =
          match l.par with
          | Codegen.Ast.Parallel -> config.barrier_cost
          | Codegen.Ast.Parallel_reduction ->
            (* privatize-and-combine epilogue: each worker's partial
               accumulator is merged after the barrier *)
            config.barrier_cost + (ncores * config.combine_cost)
          | Codegen.Ast.Forward | Codegen.Ast.Sequential ->
            (* pipelined wavefronts: one synchronization per outer
               iteration *)
            total * config.barrier_cost
        in
        barriers := !barriers + (sync / config.barrier_cost);
        time := !time + !elapsed + sync
      end
  in
  walk_top ast;
  let l1_misses = Array.fold_left (fun acc c -> acc + Cache.misses c.l1) 0 cores in
  let l2_misses = Array.fold_left (fun acc c -> acc + Cache.misses c.l2) 0 cores in
  {
    cycles = !time;
    instances = !instances;
    flops = !flops;
    accesses = !accesses;
    l1_misses;
    l2_misses;
    l3_misses = Cache.misses l3;
    barriers = !barriers;
  }

let seconds st = float_of_int st.cycles /. 2.0e9

let pp_stats fmt st =
  Format.fprintf fmt
    "cycles=%d instances=%d flops=%d accesses=%d l1m=%d l2m=%d l3m=%d barriers=%d"
    st.cycles st.instances st.flops st.accesses st.l1_misses st.l2_misses
    st.l3_misses st.barriers
