(* Footprint race checker for superscalar (PaRSEC DTD-style) task graphs.

   A DTD program declares, per task, the data it reads and writes; the
   runtime derives a DAG that must order every conflicting pair of tasks
   (RAW, WAR and WAW on any datum) consistently with insertion order.  This
   module recomputes the must-happen-before relation directly from the
   declared footprints and checks that the derived DAG covers it: any
   conflicting pair left unordered is reported as a race together with a
   minimal witness — a valid schedule of the (buggy) DAG that executes the
   later-inserted task of the pair before the earlier one, i.e. an
   interleaving the pool is allowed to produce that breaks sequential
   semantics. *)


type kind = Raw | War | Waw

let kind_name = function Raw -> "RAW" | War -> "WAR" | Waw -> "WAW"

type race = {
  first : int; (* insertion order: first < second *)
  second : int;
  key : int; (* the datum the pair conflicts on *)
  kind : kind;
  witness : int array; (* schedule of the DAG running [second] before [first] *)
}

(* Dense reachability by DFS from every source: O(V·(V+E)), plenty for the
   graph sizes the test suites explore. *)
let reachability ~num_tasks ~successors =
  let reach = Array.make_matrix num_tasks num_tasks false in
  let visited = Array.make num_tasks false in
  for src = 0 to num_tasks - 1 do
    Array.fill visited 0 num_tasks false;
    let rec visit id =
      List.iter
        (fun s ->
          if not visited.(s) then begin
            visited.(s) <- true;
            reach.(src).(s) <- true;
            visit s
          end)
        (successors id)
    in
    visit src
  done;
  reach

(* The kind of conflict between tasks [a] and [b] (insertion order a < b),
   if any.  Keys are scanned in sorted order; for a given key WAW dominates
   RAW dominates WAR. *)
let conflict_kind ~footprint a b =
  let ra, wa = footprint a and rb, wb = footprint b in
  let pick k =
    if List.mem k wa && List.mem k wb then Some (k, Waw)
    else if List.mem k wa && List.mem k rb then Some (k, Raw)
    else if List.mem k ra && List.mem k wb then Some (k, War)
    else None
  in
  List.fold_left
    (fun acc k -> match acc with Some _ -> acc | None -> pick k)
    None
    (List.sort_uniq compare (wa @ wb))

(* A witness schedule: Kahn's algorithm that postpones [delay] while any
   other task is ready.  If (delay, other) is an unordered pair this yields
   a valid linearization of the DAG with [other] before [delay] — were the
   pair ordered, [delay] would necessarily have been forced first. *)
let witness_for ~num_tasks ~successors ~delay =
  let indeg = Array.make num_tasks 0 in
  for id = 0 to num_tasks - 1 do
    List.iter (fun s -> indeg.(s) <- indeg.(s) + 1) (successors id)
  done;
  let ready = ref [] in
  Array.iteri (fun id d -> if d = 0 then ready := id :: !ready) indeg;
  let order = Array.make num_tasks (-1) in
  let filled = ref 0 in
  while !ready <> [] do
    let id =
      match List.filter (fun x -> x <> delay) (List.sort compare !ready) with
      | x :: _ -> x
      | [] -> delay
    in
    ready := List.filter (fun x -> x <> id) !ready;
    order.(!filled) <- id;
    incr filled;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then ready := s :: !ready)
      (successors id)
  done;
  if !filled <> num_tasks then invalid_arg "Races: cyclic graph";
  order

(* Check that [successors] orders every conflicting pair of [footprint].
   Races come back sorted by (first, second). *)
let check ~num_tasks ~footprint ~successors =
  let reach = reachability ~num_tasks ~successors in
  let races = ref [] in
  for b = num_tasks - 1 downto 1 do
    for a = b - 1 downto 0 do
      match conflict_kind ~footprint a b with
      | Some (key, kind) when (not reach.(a).(b)) && not reach.(b).(a) ->
        races :=
          {
            first = a;
            second = b;
            key;
            kind;
            witness = witness_for ~num_tasks ~successors ~delay:a;
          }
          :: !races
      | _ -> ()
    done
  done;
  !races

(* Race-check a DTD graph against its own declared footprints.  [drop]
   removes one derived edge first — the standard way to seed a bug and
   assert the checker catches it. *)
let check_dtd ?drop g =
  let successors =
    match drop with
    | None -> Dtd.successors g
    | Some (src, dst) ->
      fun id ->
        let ss = Dtd.successors g id in
        if id = src then List.filter (fun s -> s <> dst) ss else ss
  in
  check ~num_tasks:(Dtd.num_tasks g) ~footprint:(Dtd.footprint g) ~successors

let to_string ?name r =
  let task i =
    match name with
    | None -> Printf.sprintf "#%d" i
    | Some f -> Printf.sprintf "%s(#%d)" (f i) i
  in
  Printf.sprintf
    "%s race on datum %d: %s and %s are unordered; witness schedule runs %s before %s: [%s]"
    (kind_name r.kind) r.key (task r.first) (task r.second) (task r.second) (task r.first)
    (String.concat " " (List.map string_of_int (Array.to_list r.witness)))
