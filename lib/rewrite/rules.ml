open Unate.Unetwork
open Pattern

let va = P_var 0
let vb = P_var 1
let vc = P_var 2

let all =
  [
    (* (a & b) & c  =>  a & (b & c): with commutative expansion this
       also rotates right-leaning chains, so repeated application (one
       per variant) walks the associations of a same-kind chain. *)
    {
      name = "and-assoc";
      lhs = P_op (U_and, P_op (U_and, va, vb), vc);
      rhs = T_op (U_and, T_var 0, T_op (U_and, T_var 1, T_var 2));
    };
    {
      name = "or-assoc";
      lhs = P_op (U_or, P_op (U_or, va, vb), vc);
      rhs = T_op (U_or, T_var 0, T_op (U_or, T_var 1, T_var 2));
    };
    (* (a & b) | (a & c)  =>  a & (b | c); the nonlinear [a] is the
       compiled matcher's I_eq test. *)
    {
      name = "and-or-factor";
      lhs = P_op (U_or, P_op (U_and, va, vb), P_op (U_and, va, vc));
      rhs = T_op (U_and, T_var 0, T_op (U_or, T_var 1, T_var 2));
    };
    {
      name = "or-and-factor";
      lhs = P_op (U_and, P_op (U_or, va, vb), P_op (U_or, va, vc));
      rhs = T_op (U_or, T_var 0, T_op (U_and, T_var 1, T_var 2));
    };
    (* a & (a | b)  =>  a *)
    {
      name = "and-absorb";
      lhs = P_op (U_and, va, P_op (U_or, va, vb));
      rhs = T_var 0;
    };
    (* a | (a & b)  =>  a *)
    {
      name = "or-absorb";
      lhs = P_op (U_or, va, P_op (U_and, va, vb));
      rhs = T_var 0;
    };
  ]

(* Compiled once, at module initialisation: a shared [lazy] forced by
   two domains at once raises [CamlinternalLazy.Undefined] in one. *)
let compiled =
  let c = compile all in
  fun () -> c

let fingerprint = Pattern.fingerprint all
