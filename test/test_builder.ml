open Logic

let test_hash_consing () =
  let b = Builder.create () in
  let x = Builder.input b "x" and y = Builder.input b "y" in
  let g1 = Builder.and2 b x y in
  let g2 = Builder.and2 b y x in
  Alcotest.(check int) "commutative consing" g1 g2

let test_const_folding () =
  let b = Builder.create () in
  let x = Builder.input b "x" in
  let t = Builder.const b true and f = Builder.const b false in
  Alcotest.(check int) "and true identity" x (Builder.and2 b x t);
  Alcotest.(check int) "and false absorbs" f (Builder.and2 b x f);
  Alcotest.(check int) "or false identity" x (Builder.or2 b x f);
  Alcotest.(check int) "or true absorbs" t (Builder.or2 b x t);
  Alcotest.(check int) "xor false identity" x (Builder.xor2 b x f);
  Alcotest.(check int) "not not" x (Builder.not_ b (Builder.not_ b x))

let test_idempotence () =
  let b = Builder.create () in
  let x = Builder.input b "x" in
  Alcotest.(check int) "and x x" x (Builder.and2 b x x);
  Alcotest.(check int) "or x x" x (Builder.or2 b x x)

let test_mux_semantics () =
  let b = Builder.create () in
  let s = Builder.input b "s" in
  let a0 = Builder.input b "a0" in
  let a1 = Builder.input b "a1" in
  Builder.output b "y" (Builder.mux b ~sel:s a0 a1);
  let n = Builder.network b in
  List.iter
    (fun (sv, v0, v1) ->
      let out = Eval.eval_outputs n [| sv; v0; v1 |] in
      let expect = if sv then v1 else v0 in
      Alcotest.(check bool) "mux" expect (snd out.(0)))
    [ (false, true, false); (false, false, true); (true, true, false); (true, false, true) ]

let test_wide_gates () =
  let b = Builder.create () in
  let xs = Builder.inputs b "x" 5 in
  Builder.output b "a" (Builder.and_ b (Array.to_list xs));
  Builder.output b "o" (Builder.or_ b (Array.to_list xs));
  Builder.output b "p" (Builder.xor_ b (Array.to_list xs));
  let n = Builder.network b in
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    let v = Array.init 5 (fun _ -> Rng.bool rng) in
    let outs = Eval.eval_outputs n v in
    let get nm = snd (Array.to_list outs |> List.find (fun (k, _) -> k = nm)) in
    Alcotest.(check bool) "and" (Array.for_all Fun.id v) (get "a");
    Alcotest.(check bool) "or" (Array.exists Fun.id v) (get "o");
    Alcotest.(check bool) "xor" (Array.fold_left ( <> ) false v) (get "p")
  done

let test_xor_const () =
  let b = Builder.create () in
  let x = Builder.input b "x" in
  let t = Builder.const b true in
  let y = Builder.xor_ b [ x; t ] in
  Builder.output b "y" y;
  let n = Builder.network b in
  Alcotest.(check bool) "xor with true inverts" true
    (snd (Eval.eval_outputs n [| false |]).(0))

let test_empty_gates () =
  let b = Builder.create () in
  let _ = Builder.input b "x" in
  Alcotest.(check bool) "empty and is true"
    true
    (Builder.and_ b [] = Builder.const b true);
  Alcotest.(check bool) "empty or is false"
    true
    (Builder.or_ b [] = Builder.const b false);
  Alcotest.(check bool) "empty xor is false"
    true
    (Builder.xor_ b [] = Builder.const b false)

(* The hash-consing table against a reference [Hashtbl]: keys of every
   length from 1 to 5, most of them repeated, through growth from a tiny
   initial size.  The first value bound to a key sticks. *)
let test_hashcons_table () =
  let keys = Hashtbl.create 64 in
  let key_of v buf =
    let k = Hashtbl.find keys v in
    List.iteri (fun i x -> buf.(i) <- x) k;
    List.length k
  in
  let t = Logic.Hashcons.create 1 ~key_of in
  let reference = Hashtbl.create 64 in
  let rng = Logic.Rng.create 7 in
  let key = Array.make 5 0 in
  for v = 0 to 20_000 do
    let len = Logic.Rng.int_in rng 1 5 in
    for i = 0 to len - 1 do
      key.(i) <- Logic.Rng.int rng 12 - 2
    done;
    let k = Array.to_list (Array.sub key 0 len) in
    let want = match Hashtbl.find_opt reference k with Some w -> w | None -> v in
    Hashtbl.replace reference k want;
    Hashtbl.replace keys want k;
    Alcotest.(check int) "bound value" want (Logic.Hashcons.find_or_add t key len v)
  done;
  Alcotest.(check int) "distinct keys" (Hashtbl.length reference) (Logic.Hashcons.length t)

let suite =
  [
    Alcotest.test_case "hashcons table" `Quick test_hashcons_table;
    Alcotest.test_case "hash consing" `Quick test_hash_consing;
    Alcotest.test_case "constant folding" `Quick test_const_folding;
    Alcotest.test_case "idempotence" `Quick test_idempotence;
    Alcotest.test_case "mux semantics" `Quick test_mux_semantics;
    Alcotest.test_case "wide gates" `Quick test_wide_gates;
    Alcotest.test_case "xor with constant" `Quick test_xor_const;
    Alcotest.test_case "empty operand lists" `Quick test_empty_gates;
  ]
