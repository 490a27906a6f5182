type t = {
  line_bits : int;
  nsets : int;
  assoc : int;
  tags : int array array; (* per set: tags, -1 = invalid *)
  stamps : int array array; (* per set: LRU timestamps *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let is_pow2 x = x > 0 && x land (x - 1) = 0

let log2 x =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 x

let create ~size_bytes ~line_bytes ~assoc () =
  if not (is_pow2 size_bytes && is_pow2 line_bytes && is_pow2 assoc) then
    invalid_arg "Cache.create: sizes must be powers of two";
  let nsets = size_bytes / (line_bytes * assoc) in
  if nsets < 1 then invalid_arg "Cache.create: size < line * assoc";
  {
    line_bits = log2 line_bytes;
    nsets;
    assoc;
    tags = Array.init nsets (fun _ -> Array.make assoc (-1));
    stamps = Array.init nsets (fun _ -> Array.make assoc 0);
    clock = 0;
    hits = 0;
    misses = 0;
  }

let access c ~addr =
  let line = addr lsr c.line_bits in
  let set = line land (c.nsets - 1) in
  let tags = c.tags.(set) and stamps = c.stamps.(set) in
  c.clock <- c.clock + 1;
  let hit = ref false in
  (try
     for w = 0 to c.assoc - 1 do
       if tags.(w) = line then begin
         stamps.(w) <- c.clock;
         hit := true;
         raise Exit
       end
     done
   with Exit -> ());
  if !hit then begin
    c.hits <- c.hits + 1;
    true
  end
  else begin
    c.misses <- c.misses + 1;
    (* LRU victim: smallest stamp (empty ways have stamp 0 and tag -1) *)
    let victim = ref 0 in
    for w = 1 to c.assoc - 1 do
      if stamps.(w) < stamps.(!victim) then victim := w
    done;
    tags.(!victim) <- line;
    stamps.(!victim) <- c.clock;
    false
  end

let hits c = c.hits
let misses c = c.misses
