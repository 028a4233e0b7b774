open Mapper

type status =
  | Proved of { cost : int }
  | Gap of { dp : int; exact : int }
  | Bounded of { dp : int; lower : int }
  | Skipped of { reason : string }

type cert = {
  root : int;
  outputs : string list;
  size : int;
  n_leaves : int;
  status : status;
  backend : string;
  expansions : int;
}

type summary = {
  source : string;
  backend_name : string;
  certs : cert list;
  cones : int;
  certified : int;
      (* cones that actually went through a backend: proved + gaps +
         bounded.  [cones] additionally counts the skipped ones, so a
         summary must never read "all `cones` proved" — compare against
         [certified]. *)
  proved : int;
  gaps : int;
  bounded : int;
  skipped : int;
  trivial_outputs : int;
  expansions : int;
}

let default_max_size = 24
let default_max_expansions = 200_000

let status_of_solution ~dp (s : Backend.solution) =
  if s.Backend.proved then begin
    match s.Backend.best with
    | Some exact when exact = dp -> Proved { cost = dp }
    | Some exact when exact < dp -> Gap { dp; exact }
    | Some exact ->
        (* The DP's own choices are inside the exact search space, so a
           completed search can never land above the DP.  Soundness bug. *)
        failwith
          (Printf.sprintf
             "Opt.Certify: exact cost %d above the DP's %d — backend \
              soundness bug"
             exact dp)
    | None ->
        failwith
          "Opt.Certify: backend claims a completed search with no solution"
  end
  else if s.Backend.lower > dp then
    failwith
      (Printf.sprintf
         "Opt.Certify: certified lower bound %d above the achievable DP \
          cost %d — backend soundness bug"
         s.Backend.lower dp)
  else Bounded { dp; lower = s.Backend.lower }

let certify ?(backend = Bb.backend) ?(max_size = default_max_size)
    ?(max_expansions = default_max_expansions) ?memo ?(memo_salt = 0)
    ~(options : Engine.options) u =
  Obs.Trace.with_span ~cat:"opt" "opt.certify"
    ~args:(fun () ->
      [
        ("source", Unate.Unetwork.source_name u);
        ("backend", backend.Backend.name);
      ])
  @@ fun () ->
  let model = options.Engine.cost in
  let _, _, gate_value = Engine.map_with_gates ?memo ~memo_salt options u in
  let level_of m =
    match gate_value m with
    | Some v -> v.Cost.depth
    | None ->
        (* Unreachable: every boundary's gate is formed by the sweep. *)
        failwith
          (Printf.sprintf "Opt.Certify: boundary n%d formed no gate" m)
  in
  let instances = Instance.extract u ~boundary_level:level_of in
  (* Cone dedup: two cones of one memo class (same operators, fanin
     order, leaf kinds and boundary levels, whatever signals drive the
     leaves) have identical DP tables and identical exact optima, so the
     second is a lookup, not a search. *)
  let classes = Memo.classes u ~boundary_level:level_of in
  let solved : (int, status) Hashtbl.t = Hashtbl.create 64 in
  let certs =
    List.map
      (fun (inst : Instance.t) ->
        let root = inst.Instance.root in
        let dp =
          match gate_value root with
          | Some v -> Cost.key model v
          | None -> failwith "Opt.Certify: cone root formed no gate"
        in
        let status, expansions =
          if inst.Instance.size > max_size then
            (Skipped { reason = Printf.sprintf "size>%d" max_size }, 0)
          else begin
            let solve () =
              let budget =
                Resilience.Budget.make ~max_tuples:max_expansions ()
              in
              let s =
                backend.Backend.solve ~budget ~options ~ub:(Some dp) inst
              in
              (status_of_solution ~dp s, s.Backend.expansions)
            in
            match classes.(root) with
            | None -> solve ()
            | Some cls -> (
                match Hashtbl.find_opt solved cls with
                | Some status ->
                    (* A lookup, not a search: charging the original
                       solve's expansions again would double-count the
                       summary's work total. *)
                    (status, 0)
                | None ->
                    let ((status, _) as r) = solve () in
                    Hashtbl.replace solved cls status;
                    r)
          end
        in
        {
          root;
          outputs = Instance.outputs_of u root;
          size = inst.Instance.size;
          n_leaves = inst.Instance.n_leaves;
          status;
          backend = backend.Backend.name;
          expansions;
        })
      instances
  in
  let trivial_outputs =
    Array.fold_left
      (fun acc (_, fin) ->
        match fin with
        | Unate.Unetwork.F_node _ -> acc
        | Unate.Unetwork.F_lit _ | Unate.Unetwork.F_const _ -> acc + 1)
      0 (Unate.Unetwork.outputs u)
  in
  let count p = List.length (List.filter p certs) in
  let proved =
    count (fun c -> match c.status with Proved _ -> true | _ -> false)
  in
  let gaps = count (fun c -> match c.status with Gap _ -> true | _ -> false) in
  let bounded =
    count (fun c -> match c.status with Bounded _ -> true | _ -> false)
  in
  let skipped =
    count (fun c -> match c.status with Skipped _ -> true | _ -> false)
  in
  {
    source = Unate.Unetwork.source_name u;
    backend_name = backend.Backend.name;
    certs;
    cones = List.length certs;
    certified = proved + gaps + bounded;
    proved;
    gaps;
    bounded;
    skipped;
    trivial_outputs;
    expansions =
      List.fold_left (fun acc (c : cert) -> acc + c.expansions) 0 certs;
  }

let status_line = function
  | Proved { cost } -> Printf.sprintf "PROVED cost=%d" cost
  | Gap { dp; exact } -> Printf.sprintf "GAP dp=%d exact=%d" dp exact
  | Bounded { dp; lower } -> Printf.sprintf "BOUNDED %d<=opt<=%d" lower dp
  | Skipped { reason } -> Printf.sprintf "SKIPPED %s" reason

let render s =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "certify %s (%s): cones=%d certified=%d proved=%d gaps=%d bounded=%d \
        skipped=%d trivial-outputs=%d\n"
       s.source s.backend_name s.cones s.certified s.proved s.gaps s.bounded
       s.skipped s.trivial_outputs);
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "  n%d%s size=%d leaves=%d: %s\n" c.root
           (match c.outputs with
           | [] -> ""
           | os -> " -> " ^ String.concat "," os)
           c.size c.n_leaves (status_line c.status)))
    s.certs;
  Buffer.contents b
