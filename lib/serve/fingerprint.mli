(** Content-addressed structural fingerprints of scheduling requests.

    Generalizes {!Poly.Polyhedron.structural_key} from one constraint
    system to a whole request: the SCoP (domains, accesses, expression
    structure, loop-nest shape, textual positions, parameter defaults),
    the fusion-model configuration and the legality parameter floor.
    Requests with equal keys schedule identically, so the serving cache
    can answer with the stored response verbatim.

    Names do not participate: statement, iterator, parameter and array
    names are replaced by first-occurrence indices, so alpha-renamed
    programs collide (deliberately — same philosophy as
    [structural_key]'s rename-invariance). Loop ids are normalized by
    first occurrence, preserving loop-sharing structure only.

    The dependence set is a deterministic function of
    [(program, param_floor)], so {!key} does not compute it — hashing
    the program content already content-addresses the dependences, and
    a cache hit performs no B&B emptiness tests.

    Digests are MD5 hex (via [Digest]) — content addressing, not
    cryptography. The serialization format is versioned ({!version});
    any change to the canonical form must bump it. *)

(** The request key: MD5 hex over version, model, requested scheduling
    engine, reductions flag, param floor and program content.
    [param_floor] defaults to 2, matching {!Deps.Dep.analyze}; [engine]
    defaults to [Pluto.Engine.Auto]; [reductions] (default [false])
    keys whether reduction-aware legality relaxation was requested. The
    requested choice is keyed (not the resolved kind), so [Auto] and
    [Fixed] requests never share an entry. *)
val key :
  ?param_floor:int -> ?engine:Pluto.Engine.choice -> ?reductions:bool ->
  model:Fusion.Model.t -> Scop.Program.t -> string
