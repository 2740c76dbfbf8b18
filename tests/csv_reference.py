"""Reference for sure_eval.report's csv rendering.

The csv writer as it was before the participants section was filled from a
``%`` template: every section, the participants too, written row by row
with ``csv.writer`` (QUOTE_MINIMAL, "\\n" line ends). The participants' rows
are the score table's columns handed to ``writerows``: the ids and the
overall and key-goal scores as they are, the sub-goal scores as their repr,
which for a float is the text ``csv.writer`` writes for it. Only the table
adapter, ``ScoreTable.of``, is shared with the package.
"""

from __future__ import annotations

import csv
import io

from sure_eval.scoring import ScoreTable, _tree_ids


def render_csv(report) -> bytes:
    agg = report.aggregates
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")

    out.write("# report\n")
    writer.writerow(["field", "value"])
    writer.writerow(["title", report.title])
    writer.writerow(["version", report.version])
    writer.writerow(["generated_at", report.generated_at])

    out.write("# general\n")
    writer.writerow(["field", "value"])
    writer.writerow(["general", repr(agg.general)])
    writer.writerow(["n_participants", agg.n_participants])
    writer.writerow(["n_overall_max", agg.n_overall_max])
    writer.writerow(["n_overall_zero", agg.n_overall_zero])

    out.write("# key_goals\n")
    writer.writerow(["id", "label", "score"])
    for key_goal in report.key_goals:
        writer.writerow([key_goal.id, key_goal.label, repr(agg.key_goal[key_goal.id])])

    out.write("# sub_goals\n")
    writer.writerow(["id", "label", "key_goal", "score"])
    for key_goal in report.key_goals:
        for sub in key_goal.sub_goals:
            writer.writerow([sub.id, sub.label, key_goal.id, repr(agg.sub_goal[sub.id])])

    out.write("# distribution\n")
    writer.writerow(["bin_low", "bin_high", "count"])
    for i, count in enumerate(report.histogram):
        writer.writerow([f"{i / 10:.1f}", f"{(i + 1) / 10:.1f}", count])

    if report.participation is not None:
        out.write("# participation\n")
        writer.writerow(["respondents", "enrolled", "rate_percent"])
        writer.writerow([report.participation.respondents, report.participation.enrolled, repr(report.participation.rate_percent)])

    if report.groups:
        out.write("# groups\n")
        writer.writerow(["demographic", "group", "n", "scope", "id", "score"])
        for key, by_value in report.groups.items():
            for value, group_agg in by_value.items():
                writer.writerow([key, value, group_agg.n_participants, "general", "", repr(group_agg.general)])
                for key_goal in report.key_goals:
                    writer.writerow([key, value, group_agg.n_participants, "key_goal", key_goal.id, repr(group_agg.key_goal[key_goal.id])])
                    for sub in key_goal.sub_goals:
                        writer.writerow([key, value, group_agg.n_participants, "sub_goal", sub.id, repr(group_agg.sub_goal[sub.id])])

    out.write("# participants\n")
    key_ids, sub_ids = _tree_ids(report.key_goals)
    writer.writerow(["participant_id", "overall", *key_ids, *sub_ids])
    table = ScoreTable.of(report.participants, key_ids, sub_ids)
    writer.writerows(zip(table.ids, table.overall, *table.key_columns, *(map(repr, column) for column in table.sub_columns)))

    if report.warnings:
        out.write("# warnings\n")
        writer.writerow(["warning"])
        for warning in report.warnings:
            writer.writerow([warning])

    return out.getvalue().encode("utf-8")
