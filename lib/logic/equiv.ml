type verdict =
  | Equivalent
  | Counterexample of { input : bool array; output : string }
  | Unknown of string

(* What one exact comparison can come back with: a verdict, or the news
   that the BDDs blew past the node budget (the caller picks between
   reporting [Unknown] and degrading to sampling). *)
type attempt = A_verdict of verdict | A_limit

let default_limit = 2_000_000

(* Exact BDD comparison of two interface-compatible networks.  The
   manager carries the node cap as a hard limit, so blow-ups inside a
   single apply are caught too, not only between network nodes. *)
let compare_exact ~limit a b =
  let na = Array.length (Network.inputs a) in
  let m = Bdd.manager ~nvars:na ~max_nodes:limit () in
  Obs.Trace.with_span ~cat:"equiv" "equiv.bdd" (fun () ->
      try
        match (Bdd.of_network ~limit m a, Bdd.of_network ~limit m b) with
        | None, _ | _, None -> A_limit
        | Some oa, Some ob ->
            let tbl = Hashtbl.create 16 in
            Array.iter (fun (nm, f) -> Hashtbl.replace tbl nm f) ob;
            let result = ref Equivalent in
            Array.iter
              (fun (nm, fa) ->
                if !result = Equivalent then
                  let fb = Hashtbl.find tbl nm in
                  if not (Bdd.equal fa fb) then begin
                    let diff = Bdd.xor_ m fa fb in
                    match Bdd.any_sat m diff with
                    | Some input ->
                        result := Counterexample { input; output = nm }
                    | None ->
                        ()
                        (* unreachable: xor of unequal nodes is
                           satisfiable *)
                  end)
              oa;
            A_verdict !result
      with Bdd.Node_limit _ -> A_limit)

(* Interface compatibility shared by every entry point. *)
let interface_mismatch a b =
  let na = Array.length (Network.inputs a) in
  let nb = Array.length (Network.inputs b) in
  if na <> nb then
    Some (Printf.sprintf "input counts differ: %d vs %d" na nb)
  else begin
    let names o = Array.to_list (Array.map fst o) |> List.sort_uniq compare in
    if names (Network.outputs a) <> names (Network.outputs b) then
      Some "output name sets differ"
    else None
  end

let networks ?(limit = default_limit) a b =
  match interface_mismatch a b with
  | Some msg -> Unknown msg
  | None -> (
      match compare_exact ~limit a b with
      | A_verdict v -> v
      | A_limit -> Unknown "BDD node limit exceeded")

(* Single-output cone of [root], keeping every primary input so both
   sides of a comparison agree on input positions. *)
let cone n po_name root =
  let keep = Array.make (Network.node_count n) false in
  let rec mark id =
    if not keep.(id) then begin
      keep.(id) <- true;
      Array.iter mark (Network.node n id).Network.fanins
    end
  in
  mark root;
  let out = Network.create ~name:(Network.name n ^ "#" ^ po_name) () in
  let remap = Array.make (Network.node_count n) (-1) in
  Array.iter
    (fun id ->
      remap.(id) <- Network.add_input ~name:(Network.input_name n id) out)
    (Network.inputs n);
  Network.iter_nodes
    (fun nd ->
      if keep.(nd.Network.id) && remap.(nd.Network.id) < 0 then
        remap.(nd.Network.id) <-
          (match nd.Network.func with
          | Network.Input -> assert false (* pre-added above *)
          | Network.Const b -> Network.add_const out b
          | Network.Gate g ->
              Network.add_gate out g
                (Array.map (fun f -> remap.(f)) nd.Network.fanins)))
    n;
  Network.set_output out po_name remap.(root);
  out

(* ---------------- degradable checking ---------------- *)

type checked = {
  verdict : verdict;
  exact : bool;
  sampled_vectors : int;
  sample_seed : int;
}

let default_vectors = 4096

(* Seeded bit-parallel sampling over a cone pair; the fallback rung when
   the BDDs blow their node budget.  A clean sample is evidence, not
   proof — [exact = false] and the vector count say exactly how much. *)
let sample ~vectors ~seed a b =
  match Eval.counterexample ~vectors ~seed a b with
  | Some (input, output) -> Counterexample { input; output }
  | None -> Equivalent

let check_or_sample ~limit ~vectors ~seed a b =
  match compare_exact ~limit a b with
  | A_verdict v -> { verdict = v; exact = true; sampled_vectors = 0; sample_seed = seed }
  | A_limit ->
      {
        verdict =
          Obs.Trace.with_span ~cat:"equiv" "equiv.sample" (fun () ->
              sample ~vectors ~seed a b);
        exact = false;
        sampled_vectors = vectors;
        sample_seed = seed;
      }

let networks_or_sample ?(limit = default_limit) ?(vectors = default_vectors)
    ?(seed = 0x5EED) a b =
  match interface_mismatch a b with
  | Some msg ->
      { verdict = Unknown msg; exact = true; sampled_vectors = 0; sample_seed = seed }
  | None -> check_or_sample ~limit ~vectors ~seed a b

(* Shared per-output driver: split both networks into single-output
   cones, check the pairs on the default pool, and merge in output
   order — the first non-equivalent verdict wins, exactly as the serial
   early-exit loop would report.  [check_pair] decides what happens when
   a cone blows the node budget. *)
let per_output ~check_pair a b =
  let roots_b = Hashtbl.create 16 in
  Array.iter (fun (nm, id) -> Hashtbl.replace roots_b nm id) (Network.outputs b);
  Parallel.Pool.map_default
    (fun (nm, ra) ->
      Obs.Trace.with_span ~cat:"equiv" "equiv.cone"
        ~args:(fun () -> [ ("output", nm) ])
        (fun () ->
          let rb = Hashtbl.find roots_b nm in
          check_pair (cone a nm ra) (cone b nm rb)))
    (Network.outputs a)

let networks_per_output ?(limit = default_limit) a b =
  match interface_mismatch a b with
  | Some msg -> Unknown msg
  | None ->
      let verdicts =
        per_output a b ~check_pair:(fun ca cb ->
            match compare_exact ~limit ca cb with
            | A_verdict v -> v
            | A_limit -> Unknown "BDD node limit exceeded")
      in
      let result = ref Equivalent in
      Array.iter
        (fun v -> if !result = Equivalent && v <> Equivalent then result := v)
        verdicts;
      !result

let networks_per_output_or_sample ?(limit = default_limit)
    ?(vectors = default_vectors) ?(seed = 0x5EED) a b =
  match interface_mismatch a b with
  | Some msg ->
      { verdict = Unknown msg; exact = true; sampled_vectors = 0; sample_seed = seed }
  | None ->
      let checks =
        per_output a b ~check_pair:(check_or_sample ~limit ~vectors ~seed)
      in
      (* Merge: first non-equivalent verdict in output order; exactness
         and the sampled-vector total aggregate over every cone. *)
      let verdict = ref Equivalent in
      let exact = ref true in
      let sampled = ref 0 in
      Array.iter
        (fun c ->
          if !verdict = Equivalent && c.verdict <> Equivalent then
            verdict := c.verdict;
          if not c.exact then begin
            exact := false;
            sampled := !sampled + c.sampled_vectors
          end)
        checks;
      { verdict = !verdict; exact = !exact; sampled_vectors = !sampled;
        sample_seed = seed }

let check ?limit a b = networks ?limit a b = Equivalent

let pp_verdict fmt = function
  | Equivalent -> Format.fprintf fmt "equivalent"
  | Counterexample { input; output } ->
      Format.fprintf fmt "differ on output %s for input %s" output
        (String.concat ""
           (Array.to_list (Array.map (fun b -> if b then "1" else "0") input)))
  | Unknown reason -> Format.fprintf fmt "unknown (%s)" reason

let pp_checked fmt c =
  if c.exact then pp_verdict fmt c.verdict
  else
    Format.fprintf fmt "%a [sampled: %d vectors, seed %d — not a proof]"
      pp_verdict c.verdict c.sampled_vectors c.sample_seed
