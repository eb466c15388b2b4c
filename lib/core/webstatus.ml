let needs_escape = function '<' | '>' | '&' | '"' -> true | _ -> false

let html_escape s =
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '<' -> Buffer.add_string buf "&lt;"
        | '>' -> Buffer.add_string buf "&gt;"
        | '&' -> Buffer.add_string buf "&amp;"
        | '"' -> Buffer.add_string buf "&quot;"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let cell_class = function
  | Statuspage.Ok_ -> "ok"
  | Statuspage.Ko -> "ko"
  | Statuspage.Unst -> "unstable"
  | Statuspage.Missing -> "missing"

let style =
  {|<style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; margin-bottom: 2em; }
th, td { border: 1px solid #999; padding: 4px 10px; text-align: center; }
th { background: #eee; }
td.ok { background: #bfe8bf; }
td.ko { background: #f2b3b3; }
td.unstable { background: #f8e6a0; }
td.missing { background: #e8e8e8; color: #888; }
caption { font-weight: bold; padding: 6px; text-align: left; }
</style>|}

(* Every table appends straight into the page's one buffer. *)
let add = Buffer.add_string
let add_escaped buf s = add buf (html_escape s)

let add_int_cell buf n =
  add buf "<td>";
  add buf (string_of_int n);
  add buf "</td>"

let matrix_table buf page =
  add buf "<table><caption>Latest result per test and site</caption><tr><th>test</th>";
  List.iter
    (fun site ->
      add buf "<th>";
      add_escaped buf site;
      add buf "</th>")
    Testbed.Inventory.sites;
  add buf "</tr>";
  List.iter
    (fun family ->
      add buf "<tr><th>";
      add_escaped buf (Testdef.family_to_string family);
      add buf "</th>";
      List.iter
        (fun site ->
          let cell = Statuspage.site_status page ~family ~site in
          add buf "<td class=\"";
          add buf (cell_class cell);
          add buf "\">";
          add buf (Statuspage.cell_to_string cell);
          add buf "</td>")
        Testbed.Inventory.sites;
      add buf "</tr>")
    Testdef.all_families;
  add buf "</table>"

let summary_table buf page =
  add buf
    "<table><caption>Per-test summary</caption>\
     <tr><th>test</th><th>ok</th><th>ko</th><th>unstable</th><th>success</th></tr>";
  List.iter
    (fun (name, ok, ko, unstable, ratio) ->
      add buf "<tr><th>";
      add_escaped buf name;
      add buf "</th>";
      add_int_cell buf ok;
      add_int_cell buf ko;
      add_int_cell buf unstable;
      add buf "<td>";
      add_escaped buf (Statuspage.fmt_ratio ratio);
      add buf "</td></tr>")
    (Statuspage.summary_rows page);
  add buf "</table>"

let history_table buf page =
  add buf
    "<table><caption>History (30-day months)</caption>\
     <tr><th>month</th><th>builds</th><th>successful</th><th>success</th></tr>";
  List.iter
    (fun (month, completed, successful, ratio) ->
      add buf "<tr><th>";
      add buf (string_of_int month);
      add buf "</th>";
      add_int_cell buf completed;
      add_int_cell buf successful;
      add buf "<td>";
      add_escaped buf (Statuspage.fmt_ratio ratio);
      add buf "</td></tr>")
    (Statuspage.monthly_success page);
  add buf "</table>"

let confidence_table buf page =
  add buf
    "<table><caption>Cluster confidence</caption>\
     <tr><th>cluster</th><th>score</th><th>grade</th></tr>";
  List.iter
    (fun (cluster, score) ->
      let cls = if score >= 0.9 then "ok" else if score >= 0.5 then "unstable" else "ko" in
      add buf "<tr><th>";
      add_escaped buf cluster;
      add buf "</th><td class=\"";
      add buf cls;
      add buf "\">";
      add_escaped buf (Simkit.Table.fmt_pct score);
      add buf "</td><td>";
      add buf (Confidence.grade score);
      add buf "</td></tr>")
    (Confidence.ranking page);
  add buf "</table>"

let render page =
  let buf = Buffer.create 8192 in
  List.iter
    (fun part ->
      add buf part;
      add buf "\n")
    [ "<!DOCTYPE html><html><head><meta charset=\"utf-8\">";
      "<title>Grid'5000 testing status</title>"; style; "</head><body>";
      "<h1>Testbed testing status</h1>" ];
  matrix_table buf page;
  add buf "\n";
  summary_table buf page;
  add buf "\n";
  confidence_table buf page;
  add buf "\n";
  history_table buf page;
  add buf "\n</body></html>";
  Buffer.contents buf
