(* One-sided bounds behind the chaos soak's survival gate
   (`bench -- soak`) and wisebench's `--compare` verdicts.

   Kept free of I/O and of the JSON parsing so the verdict logic is
   unit-testable: given a measured value and a floor or ceiling,
   classify the pair. A NaN measurement must read as unusable, never
   as "within bounds" (NaN comparisons are all false, so the explicit
   check is load-bearing). *)

type bound_verdict =
  | Met of float  (* the measured value; bound satisfied *)
  | Violation of float  (* the measured value; bound broken *)
  | Bad_value  (* measurement or bound not finite: no verdict *)

let check_min ~floor ~value =
  if not (Float.is_finite floor && Float.is_finite value) then Bad_value
  else if value >= floor then Met value
  else Violation value

let check_max ~ceiling ~value =
  if not (Float.is_finite ceiling && Float.is_finite value) then Bad_value
  else if value <= ceiling then Met value
  else Violation value

let bound_failure = function
  | Violation _ -> true
  | Met _ | Bad_value -> false

let describe_bound = function
  | Met v -> Printf.sprintf "%.4g  ok" v
  | Violation v -> Printf.sprintf "%.4g  VIOLATION" v
  | Bad_value -> "not a finite number; skipped"
