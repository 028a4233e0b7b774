open Unate

type variant = { v_rule : string; v_site : int; v_net : Unetwork.t }

let signature u =
  let b = Buffer.create 256 in
  let fin = function
    | Unetwork.F_node i -> Buffer.add_string b (Printf.sprintf "n%d" i)
    | Unetwork.F_lit { Unetwork.input; positive } ->
        Buffer.add_string b
          (Printf.sprintf "%c%d" (if positive then '+' else '-') input)
    | Unetwork.F_const c -> Buffer.add_char b (if c then '1' else '0')
  in
  for id = 0 to Unetwork.node_count u - 1 do
    let nd = Unetwork.node u id in
    Buffer.add_char b
      (match nd.Unetwork.kind with Unetwork.U_and -> '&' | Unetwork.U_or -> '|');
    fin nd.Unetwork.fanin0;
    Buffer.add_char b ',';
    fin nd.Unetwork.fanin1;
    Buffer.add_char b ';'
  done;
  Array.iter
    (fun (nm, f) ->
      Buffer.add_string b nm;
      Buffer.add_char b '=';
      fin f;
      Buffer.add_char b ';')
    (Unetwork.outputs u);
  Buffer.contents b

(* Rebuild [u] with the definition of [site] replaced by the rule's
   instantiated template.  One pass in id order: nodes below the site
   are copied (remapped), the site's slot becomes the template root —
   possibly a plain fanin, for collapsing rules like absorption — and
   nodes above it remap any fanin that pointed into rewritten
   structure.  Every binding references ids below the site (fanins only
   point down), so bound fanins are remapped before they are used. *)
let apply u ~site (m : Pattern.match_) =
  let n = Unetwork.node_count u in
  let acc = ref [] in
  let next = ref 0 in
  let remap = Array.make n (Unetwork.F_const false) in
  let remap_fin = function
    | Unetwork.F_node i -> remap.(i)
    | (Unetwork.F_lit _ | Unetwork.F_const _) as f -> f
  in
  let emit kind fanin0 fanin1 =
    let id = !next in
    incr next;
    acc := { Unetwork.id; kind; fanin0; fanin1 } :: !acc;
    Unetwork.F_node id
  in
  let rec inst = function
    | Pattern.T_var v -> remap_fin m.Pattern.m_bindings.(v)
    | Pattern.T_op (k, a, b) ->
        let fa = inst a in
        let fb = inst b in
        emit k fa fb
  in
  for id = 0 to n - 1 do
    if id = site then remap.(id) <- inst m.Pattern.m_rule.Pattern.rhs
    else
      let nd = Unetwork.node u id in
      remap.(id) <-
        emit nd.Unetwork.kind (remap_fin nd.Unetwork.fanin0)
          (remap_fin nd.Unetwork.fanin1)
  done;
  let nodes = Array.of_list (List.rev !acc) in
  let outputs =
    Array.map (fun (nm, f) -> (nm, remap_fin f)) (Unetwork.outputs u)
  in
  Unetwork.with_structure u ~nodes ~outputs

let enumerate ?(budget = Resilience.Budget.unlimited) ?rules ~limit u =
  Obs.Trace.with_span ~cat:"rewrite" "rewrite.enumerate"
    ~args:(fun () ->
      [
        ("source", Unetwork.source_name u);
        ("limit", string_of_int limit);
      ])
  @@ fun () ->
  let compiled =
    match rules with
    | None -> Rules.compiled ()
    | Some rs -> Pattern.compile rs
  in
  let n = Unetwork.node_count u in
  let seen = Hashtbl.create 16 in
  Hashtbl.add seen (signature u) ();
  let out = ref [] in
  let count = ref 0 in
  (try
     let site = ref 0 in
     while !count < limit && !site < n do
       Resilience.Budget.check_deadline budget;
       let ms = Pattern.matches_at compiled u !site in
       List.iter
         (fun m ->
           if !count < limit then begin
             (* A variant costs one rebuild of the node array. *)
             Resilience.Budget.charge_tuples budget (n + 1);
             let v = apply u ~site:!site m in
             let sg = signature v in
             if not (Hashtbl.mem seen sg) then begin
               Hashtbl.add seen sg ();
               out :=
                 {
                   v_rule = m.Pattern.m_rule.Pattern.name;
                   v_site = !site;
                   v_net = v;
                 }
                 :: !out;
               incr count
             end
           end)
         ms;
       incr site
     done
   with Resilience.Budget.Exhausted _ ->
     (* Degrade, never fail: the variants built so far are the choice
        set; the caller sees the spent budget on its own charges. *)
     ());
  List.rev !out
