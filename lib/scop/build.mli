(** An embedded DSL for writing SCoP kernels.

    Example — the first gemver loop nest:
    {[
      let ctx = Build.create ~name:"gemver" ~params:[ ("N", 1500) ] in
      let n = Build.param ctx "N" in
      let a = Build.array ctx "A" [ n; n ] in
      let u1 = Build.array ctx "u1" [ n ] in
      let v1 = Build.array ctx "v1" [ n ] in
      Build.loop ctx "i" ~lb:(Build.ci 0) ~ub:(n -~ ci 1) (fun i ->
          Build.loop ctx "j" ~lb:(Build.ci 0) ~ub:(n -~ ci 1) (fun j ->
              Build.assign ctx "S1" a [ i; j ]
                (a.%([ i; j ]) +: (u1.%([ i ]) *: v1.%([ j ])))));
      let program = Build.finish ctx
    ]} *)

type ctx
type aff
type arr
type rexpr

(** {1 Program skeleton} *)

(** [create ~name ~params] starts a program; each parameter comes with
    its default concrete value (used by the machine substrate). *)
val create : name:string -> params:(string * int) list -> ctx

(** Parameter as an affine value. @raise Not_found for unknown names. *)
val param : ctx -> string -> aff

(** Declare an array with the given extents (affine in parameters
    only). Returns a handle used in accesses.
    @raise Invalid_argument if an extent mentions an iterator. *)
val array : ctx -> string -> aff list -> arr

(** [loop ctx name ~lb ~ub body] runs [body] with the new iterator in
    scope; bounds are inclusive and may reference outer iterators. *)
val loop : ctx -> string -> lb:aff -> ub:aff -> (aff -> unit) -> unit

(** [assign ctx name target idx rhs] records statement
    [name: target[idx] = rhs] at the current loop position. *)
val assign : ctx -> string -> arr -> aff list -> rexpr -> unit

(** Finalize. @raise Invalid_argument if the program is malformed. *)
val finish : ctx -> Program.t

(** {1 Affine expressions} *)

(** Integer constant. *)
val ci : int -> aff

val ( +~ ) : aff -> aff -> aff
val ( -~ ) : aff -> aff -> aff

(** Scale by an integer. *)
val ( *~ ) : int -> aff -> aff

(** {1 Right-hand sides} *)

(** Float constant. *)
val f : float -> rexpr

(** Array load, e.g. [a.%([ i; j ])]. *)
val ( .%() ) : arr -> aff list -> rexpr

val ( +: ) : rexpr -> rexpr -> rexpr
val ( -: ) : rexpr -> rexpr -> rexpr
val ( *: ) : rexpr -> rexpr -> rexpr
val ( /: ) : rexpr -> rexpr -> rexpr

(** Pointwise minimum / maximum — the associative-commutative operators
    the reduction detector recognizes besides [+] and [*]. *)
val min_ : rexpr -> rexpr -> rexpr
val max_ : rexpr -> rexpr -> rexpr
